#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

#include "util/contract.h"

namespace ccs {
namespace {

TEST(Table, PrintsTitleHeaderAndRows) {
  Table t("demo");
  t.set_header({"a", "bb"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("a  bb"), std::string::npos);
  EXPECT_NE(out.find("1"), std::string::npos);
}

TEST(Table, RightAlignsByDefault) {
  Table t("align");
  t.set_header({"col"});
  t.add_row({"7"});
  std::ostringstream os;
  t.print(os);
  // "col" is 3 wide, so the value line must be "  7".
  EXPECT_NE(os.str().find("  7"), std::string::npos);
}

TEST(Table, LeftAlignOption) {
  Table t("align");
  t.set_header({"name", "v"});
  t.set_align({Align::kLeft, Align::kRight});
  t.add_row({"ab", "1"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("ab  "), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t("bad");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), ContractViolation);
}

TEST(Table, RowBeforeHeaderThrows) {
  Table t("bad");
  EXPECT_THROW(t.add_row({"1"}), ContractViolation);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t("csv");
  t.set_header({"name", "note"});
  t.add_row({"plain", "a,b"});
  t.add_row({"quote", "say \"hi\""});
  std::ostringstream os;
  t.print_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"a,b\""), std::string::npos);
  EXPECT_NE(out.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, NumericFormatters) {
  EXPECT_EQ(Table::num(std::int64_t{42}), "42");
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::ratio(2.5, 1), "2.5x");
}

TEST(Table, RowsCount) {
  Table t("n");
  t.set_header({"x"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.rows(), 2u);
}

}  // namespace
}  // namespace ccs
