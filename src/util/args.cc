#include "util/args.h"

#include <iostream>
#include <sstream>

#include "util/contract.h"
#include "util/error.h"

namespace ccs {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_int(const std::string& name, std::int64_t default_value,
                        const std::string& help) {
  CCS_EXPECTS(!specs_.count(name), "duplicate flag " + name);
  specs_[name] = Spec{Kind::kInt, help, std::to_string(default_value)};
}

void ArgParser::add_double(const std::string& name, double default_value,
                           const std::string& help) {
  CCS_EXPECTS(!specs_.count(name), "duplicate flag " + name);
  std::ostringstream os;
  os << default_value;
  specs_[name] = Spec{Kind::kDouble, help, os.str()};
}

void ArgParser::add_string(const std::string& name, const std::string& default_value,
                           const std::string& help) {
  CCS_EXPECTS(!specs_.count(name), "duplicate flag " + name);
  specs_[name] = Spec{Kind::kString, help, default_value};
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  CCS_EXPECTS(!specs_.count(name), "duplicate flag " + name);
  specs_[name] = Spec{Kind::kFlag, help, "0"};
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) throw Error("unexpected positional argument: " + arg);
    arg = arg.substr(2);
    std::string name = arg;
    std::optional<std::string> value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }
    const auto it = specs_.find(name);
    if (it == specs_.end()) throw Error("unknown flag --" + name + "\n" + usage());
    Spec& spec = it->second;
    if (spec.kind == Kind::kFlag) {
      if (value.has_value()) throw Error("flag --" + name + " takes no value");
      spec.value = "1";
      continue;
    }
    if (!value.has_value()) {
      if (i + 1 >= argc) throw Error("flag --" + name + " needs a value");
      value = argv[++i];
    }
    // Validate numeric flags eagerly so errors point at the flag.
    try {
      if (spec.kind == Kind::kInt) (void)std::stoll(*value);
      if (spec.kind == Kind::kDouble) (void)std::stod(*value);
    } catch (const std::exception&) {
      throw Error("flag --" + name + " expects a number, got '" + *value + "'");
    }
    spec.value = *value;
  }
  return true;
}

const ArgParser::Spec& ArgParser::find(const std::string& name, Kind kind) const {
  const auto it = specs_.find(name);
  CCS_EXPECTS(it != specs_.end(), "flag " + name + " was never registered");
  CCS_EXPECTS(it->second.kind == kind, "flag " + name + " accessed with wrong type");
  return it->second;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  return std::stoll(find(name, Kind::kInt).value);
}

double ArgParser::get_double(const std::string& name) const {
  return std::stod(find(name, Kind::kDouble).value);
}

const std::string& ArgParser::get_string(const std::string& name) const {
  return find(name, Kind::kString).value;
}

bool ArgParser::get_flag(const std::string& name) const {
  return find(name, Kind::kFlag).value == "1";
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " -- " << description_ << "\nflags:\n";
  for (const auto& [name, spec] : specs_) {
    os << "  --" << name;
    switch (spec.kind) {
      case Kind::kInt: os << "=<int>"; break;
      case Kind::kDouble: os << "=<float>"; break;
      case Kind::kString: os << "=<str>"; break;
      case Kind::kFlag: break;
    }
    os << "  " << spec.help << " (default: " << spec.value << ")\n";
  }
  return os.str();
}

}  // namespace ccs
