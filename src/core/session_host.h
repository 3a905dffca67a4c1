// core::SessionHost -- the session lifecycle both serving front-ends share.
//
// core::Server timeshares many Stream sessions over one cache; core::Cluster
// places them on a pool of workers. They differ in how they multiplex and
// where a session runs, and in nothing else about a session: that is this
// class.
//
//   * The open-session table (std::map, node-stable: a Cluster's per-worker
//     slots point into it), id allocation (monotonic, never reused), and the
//     name index.
//   * Admission: the session's StreamPlan is built once and priced by its
//     layout footprint; the session::AdmissionPolicy is asked for room, and
//     a refusal evicts the least-recently-active *idle* session to the swap
//     tier and retries (counted admissions_queued) or, with no victim,
//     rejects (admissions_rejected).
//   * Address bands: every open session gets a disjoint band_words-wide slab
//     below the engines' external-stream space (smallest free band first),
//     so sessions contend for cache blocks instead of aliasing; close()
//     recycles the band.
//   * The swap tier: swap-out packs the Stream's state into a
//     session::SwapImage (audit builds prove the round trip) and frees the
//     Stream; rehydration rebuilds it from the plan on the cache the session
//     last ran on, without a single cache access, so a swap-on run's
//     per-session counters are bit-identical to a swap-off run's.
//   * close(): the totals fold into the retired aggregate and the id is
//     rejected forever, so memory is O(open), not O(ever admitted).
//   * LifecycleCounters and the resident set (the sessions with a live
//     Stream, in id order) -- what every per-operation walk of a front-end
//     visits, so their cost follows resident sessions, not open ones.
//
// A front-end says where a new session runs through admit()'s `place`
// callback -- the one call the host makes through a function object -- and
// keeps its own scheduling state (Cluster's per-worker slots and runnable
// counts) in step around the host's per-session operations. Steps and
// pushes never call through the host indirectly.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>

#include "core/stream.h"
#include "iomodel/cache.h"
#include "latency/cost_model.h"
#include "partition/partition.h"
#include "runtime/run_result.h"
#include "sdf/graph.h"
#include "session/admission.h"
#include "session/lifecycle.h"
#include "session/swap.h"

namespace ccs::core {

/// Tenant id within one Server or Cluster: assigned monotonically at
/// admission and never reused, so a closed session's id stays invalid
/// forever.
using TenantId = std::int32_t;

inline constexpr TenantId kNoTenant = -1;

/// Dense worker index within one Cluster. Valid ids are 0..worker_count()-1.
using WorkerId = std::int32_t;

inline constexpr WorkerId kNoWorker = -1;

/// Writes `"lifecycle": {...}` -- the lifecycle counters and the swap tier's
/// footprint -- on ONE line, so swap-on vs swap-off differentials can strip
/// it with `grep -v '"lifecycle"'` and byte-compare the rest of a report.
void write_lifecycle_json(std::ostream& os, const session::LifecycleCounters& lifecycle,
                          std::int64_t swap_stored_bytes,
                          std::int64_t swap_peak_stored_bytes);

/// The session lifecycle Server and Cluster share (see the file comment).
/// Not thread-safe: only the controlling thread calls it, between runs; a
/// Cluster's worker threads touch their own sessions' streams and nothing
/// of the host.
class SessionHost {
 public:
  /// One open session.
  struct Session {
    TenantId id = kNoTenant;
    std::string name;

    /// Built once at admission (engine.address_base baked in): a Stream is
    /// this plan plus the mutable state in its swap image, so keeping it
    /// makes the swap tier transparent and rehydration cheap.
    std::shared_ptr<const StreamPlan> plan;
    std::unique_ptr<Stream> stream;      ///< Null while swapped out.
    iomodel::CacheSim* cache = nullptr;  ///< Where it runs and rehydrates.
    std::int64_t band = 0;               ///< Address band (base = band * band_words).

    /// Known-blocked until new arrivals. Swapped sessions are idle by
    /// construction; only idle sessions are ever swapped out.
    bool idle = false;

    // Report summary cached at swap-out so reports never rehydrate.
    runtime::RunResult totals;
    std::int64_t steps = 0;
    std::int64_t outputs = 0;

    // Front-end state; each front-end leaves the other's at its default.
    double last_miss_rate = 0.0;  ///< Server: misses per firing of the last step.
    WorkerId worker = kNoWorker;  ///< Cluster: the worker serving it.
    std::int64_t migrations = 0;  ///< Cluster: times it changed workers.
  };

  /// Chooses the cache a new session runs on. Called once per admission,
  /// after eviction and band allocation, before the session joins the table
  /// (so it sees neither the new session nor the evicted ones as resident).
  using Place = std::function<iomodel::CacheSim&(Session&)>;

  /// `cache` is the geometry sessions plan against (its capacity is the
  /// default M, its block size the layout alignment). `options_name` names
  /// the front-end's options struct in error messages. `cost_model` (may be
  /// null, must outlive the host) prices every session's steps. Throws
  /// MemoryError for a degenerate geometry and ccs::Error for an unknown
  /// admission key or a band size that is not a positive multiple of the
  /// block size.
  SessionHost(std::string options_name, const iomodel::CacheConfig& cache,
              std::int64_t band_words, const std::string& admission,
              const session::AdmissionBudget& budget, bool swap,
              const latency::CostModel* cost_model = nullptr);

  /// Opens a session: builds and prices its plan, makes room, allocates a
  /// band, asks `place` for its cache, and instantiates its Stream. Returns
  /// null when the admission policy refuses and no idle victim can be
  /// swapped out. `m` = 0 plans for the host's cache capacity. Throws
  /// ccs::Error for a duplicate name, a layout wider than one band, or
  /// exhausted address bands.
  Session* admit(std::string name, const sdf::SdfGraph& g, const partition::Partition& p,
                 StreamOptions options, std::int64_t m, const Place& place);

  /// Retires `s` forever: folds its totals into the retired aggregate,
  /// frees its Stream (or drops its swap image), returns its band to the
  /// free list, and erases it from the table.
  void close(Session& s);

  /// The open session `id`; throws ccs::Error naming the open sessions for
  /// an unknown or closed id.
  Session& session(TenantId id);
  const Session& session(TenantId id) const;

  /// The open session `id`, rehydrated first if it is swapped out.
  Session& resident(TenantId id);

  /// A resident session's Stream; throws for a swapped one (a const host
  /// cannot rebuild it).
  const Stream& stream(TenantId id) const;

  static session::SessionState state_of(const Session& s) noexcept {
    if (s.stream == nullptr) return session::SessionState::kSwapped;
    return s.idle ? session::SessionState::kIdle : session::SessionState::kLive;
  }

  /// Rebuilds a swapped session's Stream from its image on `s.cache`. No
  /// cache traffic.
  void rehydrate(Session& s);

  /// Evicts one resident idle session (requires the swap tier); throws for
  /// a non-idle, already-swapped, or unknown session.
  void swap_out(TenantId id);

  /// Evicts every resident idle session (requires the swap tier), in id
  /// order; returns how many were evicted.
  std::int64_t swap_out_idle();

  /// Marks a session recently active (the swap tier's eviction order).
  void touch(TenantId id) { swap_.touch(id); }

  /// Open sessions in id order. Front-ends may change a session's fields
  /// but never the table itself.
  std::map<TenantId, Session>& sessions() noexcept { return sessions_; }
  const std::map<TenantId, Session>& sessions() const noexcept { return sessions_; }

  /// The resident (not swapped) sessions, in id order.
  const std::map<TenantId, Session*>& resident_set() const noexcept { return resident_; }

  std::int32_t size() const noexcept { return static_cast<std::int32_t>(sessions_.size()); }

  const session::LifecycleCounters& lifecycle() const noexcept { return lifecycle_; }

  /// Fills the report fields both front-ends share -- the retired
  /// aggregate, lifecycle and swap-tier counters, and one row per open
  /// session (id, name, state, totals, steps, outputs) -- and sums the rows
  /// and the retired totals into report.aggregate. `fill_row(session, row)`
  /// adds a front-end's own row fields.
  template <class Report, class FillRow>
  void fill_report(Report& report, FillRow&& fill_row) const {
    report.retired = retired_;
    report.retired_sessions = lifecycle_.sessions_closed;
    report.aggregate = retired_;
    report.lifecycle = lifecycle_;
    report.swap_stored_bytes = swap_.stored_bytes();
    report.swap_peak_stored_bytes = swap_.peak_stored_bytes();
    report.tenants.reserve(sessions_.size());
    for (const auto& [id, s] : sessions_) {
      auto& row = report.tenants.emplace_back();
      row.id = id;
      row.name = s.name;
      row.state = state_of(s);
      if (s.stream != nullptr) {
        row.totals = s.stream->stats();
        row.steps = s.stream->steps();
        row.outputs = s.stream->outputs_produced();
      } else {
        row.totals = s.totals;
        row.steps = s.steps;
        row.outputs = s.outputs;
      }
      fill_row(s, row);
      report.aggregate += row.totals;
    }
  }

  /// Recounts the bookkeeping from the session table and throws
  /// ContractViolation on the first mismatch: the resident set holds exactly
  /// the sessions with a live Stream (swapped ones idle), the name index
  /// exactly the open names, every band handed out is either open (once) or
  /// free, and the lifecycle and swap-tier counts match the table.
  void audit_invariants() const;

 private:
  [[noreturn]] void throw_unknown(TenantId id) const;

  /// Serializes a resident idle session into the swap tier and frees its
  /// Stream.
  void evict(Session& s);

  std::int64_t allocate_band();

  std::string options_name_;
  iomodel::CacheConfig cache_;
  std::int64_t band_words_;
  bool swap_enabled_;
  const latency::CostModel* cost_model_;
  std::unique_ptr<session::AdmissionPolicy> admission_;
  std::map<TenantId, Session> sessions_;  ///< Open sessions only, O(live+swapped).
  std::map<TenantId, Session*> resident_;
  std::unordered_set<std::string> names_;  ///< Names of open sessions.
  TenantId next_id_ = 0;
  std::set<std::int64_t> free_bands_;  ///< Bands returned by close().
  std::int64_t next_band_ = 0;
  session::SwapManager swap_;
  session::LifecycleCounters lifecycle_;
  runtime::RunResult retired_;  ///< Folded totals of closed sessions.
};

}  // namespace ccs::core
