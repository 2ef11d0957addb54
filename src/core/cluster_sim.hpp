// Cycle-stepped simulator for one Respin cluster.
//
// Time advances in shared-cache cycles (0.4 ns). Cores tick at integer
// multiples of that clock (their VARIUS-assigned multiplier), so every
// cache request aligns with a cache-cycle boundary — exactly the clocking
// scheme of paper §II. The shared-L1 data path is simulated cycle by cycle
// through SharedCacheController (request registers, priority shift
// registers, half-misses); L2/L3/DRAM and the private-L1 MESI baseline are
// latency-charged through respin::mem.
//
// The whole simulator is a value type: copying it snapshots the complete
// architectural + microarchitectural state, which is how the oracle
// consolidation study replays epochs (see oracle.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/consolidation.hpp"
#include "core/shared_cache_controller.hpp"
#include "cpu/core_model.hpp"
#include "fault/fault.hpp"
#include "mem/backside.hpp"
#include "mem/cache_array.hpp"
#include "mem/private_l1.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"
#include "power/energy.hpp"
#include "util/stats.hpp"
#include "workload/workload.hpp"

namespace respin::core {

struct SimParams {
  double workload_scale = 1.0;  ///< Multiplies phase instruction counts.
  std::uint64_t seed = 1;       ///< Workload + arbitration seed.
  std::int64_t max_cycles = 400'000'000;  ///< Safety valve (cache cycles).
  /// Event-driven clock. The clock jumps to the next cycle where anything
  /// can happen (a core tick, a fill return, controller activity, an
  /// epoch boundary), and a core with one resident thread skips the ticks
  /// it would spend waiting: it jumps to a known wake cycle, parks on a
  /// barrier until the last arrival, or elides the interior of a compute
  /// burst. Skipped idle polls are credited when the clock reaches them.
  /// Off, every cycle and every powered core's tick is stepped: the
  /// reference the determinism tests compare against. Results are
  /// bit-identical either way (see docs/performance.md).
  bool cycle_skip = true;
  /// Structured trace destination (epoch boundaries, consolidation
  /// decisions — see docs/observability.md for the schema). Null disables
  /// tracing; emission only reads simulator state, so results are
  /// bit-identical with tracing on or off.
  obs::TraceSink* trace = nullptr;
  /// Fault-injection plan (see docs/faults.md). Disabled by default; a
  /// disabled plan never seeds a fault stream, keeping results
  /// bit-identical to the fault-free golden grid.
  fault::FaultPlan faults;
};

/// One point of the consolidation trace (paper Figs. 12/13).
struct ConsolidationSample {
  std::int64_t cycle = 0;
  std::uint32_t active_cores = 0;
  double epi_pj = 0.0;
};

/// Everything a bench/test wants to know about one finished run.
struct SimResult {
  std::string config_name;
  std::string benchmark;
  std::int64_t cycles = 0;
  double seconds = 0.0;
  std::uint64_t instructions = 0;
  bool hit_cycle_limit = false;

  power::ActivityCounts counts;
  power::EnergyBreakdown energy;

  // Shared-L1 data-cache behaviour (paper Figs. 10/11); empty histograms
  // for private-cache configurations.
  util::Histogram read_hit_latency{8};  ///< Bucket = core cycles to hit.
  std::uint64_t dl1_read_hits = 0;
  std::uint64_t dl1_read_misses = 0;
  std::uint64_t dl1_half_misses = 0;
  std::uint64_t dl1_store_rejections = 0;
  util::Histogram dl1_arrivals{9};
  std::uint64_t dl1_cycles = 0;

  // Consolidation behaviour (paper Figs. 12-14).
  std::vector<ConsolidationSample> trace;
  double avg_active_cores = 0.0;
  std::uint32_t min_active_cores = 0;
  std::uint32_t max_active_cores = 0;

  // Hybrid L1D way partition (surfaced as tech.* metrics); both zero on
  // pure arrays. The SRAM-class access counts live in counts.l1_sram_*.
  std::uint32_t hybrid_sram_ways = 0;
  std::uint32_t hybrid_nvm_ways = 0;

  // Fault injection (respin::fault); all zero when faults were disabled.
  bool faults_enabled = false;
  fault::FaultStats faults;
  std::uint64_t fault_l1_disabled_ways = 0;
  std::uint64_t fault_l1_correctable_ways = 0;
  std::uint64_t fault_l1_usable_bytes = 0;  ///< Effective L1 capacity.
  std::uint64_t fault_l1_total_bytes = 0;

  double epi_pj() const {
    return power::energy_per_instruction(energy, instructions);
  }
  double watts() const {
    return seconds > 0.0 ? energy.total() * 1e-12 / seconds : 0.0;
  }
};

class ClusterSim {
 public:
  ClusterSim(ClusterConfig config, const workload::WorkloadSpec& spec,
             const SimParams& params);

  /// Workload-frontend constructor: drives the cluster from any op-source
  /// factory (synthetic generator, recorded trace, ...). `sources` is
  /// called once per virtual core with (thread_id, cluster_cores) and must
  /// return a non-empty stream. `benchmark_name` labels SimResult rows.
  ClusterSim(ClusterConfig config, std::string benchmark_name,
             const workload::OpSourceFactory& sources,
             const SimParams& params);

  /// Runs to completion (or max_cycles), driving the configured governor
  /// (greedy/OS) at every epoch boundary. Oracle configurations are driven
  /// externally via run_one_epoch — see oracle.hpp.
  void run();

  /// Advances to the next epoch boundary and closes the epoch (greedy/OS
  /// governors decide there; the oracle decides from outside). Returns
  /// false once the workload is done or max_cycles is reached; an
  /// ungoverned configuration has no epochs and runs to that point.
  bool run_one_epoch();

  /// Copy of the full simulator state with no trace sink, so a trial run
  /// on it (the oracle's candidate epochs) records no events.
  ClusterSim snapshot() const;

  bool done() const { return finished_vcores_ == vcores_.size(); }

  /// Externally forces the active-core count (oracle driver).
  void set_active_cores(std::uint32_t count);
  std::uint32_t active_cores() const { return active_count_; }

  /// EPI (pJ/instr) of the last completed epoch; +inf before the first.
  double last_epoch_epi() const { return last_epoch_epi_; }

  /// Elapsed simulated time in cache cycles.
  std::int64_t now() const { return now_; }

  /// Snapshot of metrics; callable mid-run (oracle) or at completion.
  SimResult result();

  /// Diagnostic: one line per virtual core describing its scheduling and
  /// wait state (useful when investigating a run that stopped making
  /// progress under an experimental configuration).
  std::string describe_state() const;

  /// Exports the full counter registry: per-core busy/idle/multiplier,
  /// per-vcore committed instructions, shared-cache controller statistics
  /// ("dl1.*") or private-L1 coherence counters ("pl1.*"), and backside
  /// traffic ("backside.*"). Finer-grained than SimResult; callable
  /// mid-run or at completion.
  void collect_counters(obs::CounterSet& set) const;

  const ClusterConfig& config() const { return cfg_; }

 private:
  struct PendingRead {
    bool valid = false;
    std::uint32_t vcore = 0;
    mem::Addr addr = 0;
  };
  struct FillEvent {
    std::int64_t cycle = 0;
    mem::Addr addr = 0;
    bool instruction = false;
    /// STT write retries drawn when the fill was created (the draw happens
    /// at a deterministic event point; the latency is already folded into
    /// `cycle`, the energy is charged when the fill applies).
    std::uint32_t retries = 0;
    /// Retry budget exhausted: the fill is dropped (line stays uncached).
    bool drop = false;
    /// Store-allocate fill: carries store data, which writes through to
    /// the backside when the fill drops or its set is disabled.
    bool store = false;
    bool operator>(const FillEvent& o) const { return cycle > o.cycle; }
  };
  struct BarrierState {
    std::int64_t completed = -1;       ///< Highest released barrier id.
    std::uint32_t arrived = 0;
    std::int64_t line_free_at = 0;     ///< Arrival-update serialization.
    std::int64_t last_release = 0;
    std::int64_t latest_arrival = 0;
  };

  void step_cycle();
  void advance_clock();
  void step_core(std::uint32_t pid);
  /// True when `pid`'s ticks may be skipped (idle jump, barrier parking,
  /// burst elision): the event-driven clock is on and the core hosts one
  /// thread, so no rotation or context switch can fall on a skipped tick.
  bool may_skip_ticks(std::uint32_t pid) const {
    return params_.cycle_skip && cores_[pid].vcores.size() == 1;
  }
  void fast_forward_idle(std::uint32_t pid);
  /// Moves `pid`'s next tick to its first boundary at or after `ready`
  /// (and its stall), never before its credit anchor. The boundaries in
  /// between are idle polls; credit_idle() credits them when the core
  /// next ticks or a settle reaches them.
  void jump_idle_to(std::uint32_t pid, std::int64_t ready);
  /// Credits `pid` the idle polls on its boundaries in [anchor, t) and
  /// moves the anchor to `t` (a boundary of `pid`); a no-op if `t` is not
  /// past the anchor, which is the case on every tick of a core that has
  /// not jumped.
  void credit_idle(std::uint32_t pid, std::int64_t t);
  /// Puts every powered core where the cycle-by-cycle clock has it at
  /// now_ (see the definition), so the epoch books, the governor, an
  /// oracle snapshot and a result see that state. Runs at each epoch
  /// boundary and at the end of a run.
  void settle_skipped_ticks();
  /// First cycle the run loop must look at again: max_cycles or, when a
  /// governor observes epochs, the earliest cycle an epoch boundary can
  /// fall on. `burst_m` is the multiplier of a core about to elide a
  /// compute burst (its ticks, and every other core's, may commit
  /// instructions inside the window), or 0 for the clock, which stops on
  /// every core tick anyway.
  std::int64_t epoch_horizon(std::int64_t burst_m) const;
  void execute_vcore(std::uint32_t pid, std::uint32_t vid);
  /// Replays the interior of a compute run in a tight loop (identical
  /// arithmetic, no per-tick cluster scan) and moves the core's next tick
  /// and credit anchor past the elided ticks, which are credited busy at
  /// once. See the comment in the definition.
  void elide_compute_ticks(std::uint32_t pid, std::uint32_t vid);
  void issue_load(std::uint32_t pid, std::uint32_t vid);
  bool issue_store(std::uint32_t pid, std::uint32_t vid);
  void arrive_barrier(std::uint32_t vid);
  bool barrier_released(const cpu::VirtualCore& v) const;
  void commit_instructions(std::uint32_t pid, std::uint32_t vid,
                           std::uint32_t n);
  void do_ifetch(std::uint32_t pid, std::uint32_t vid);
  void handle_serviced_read(const ServicedRead& serviced);
  void apply_fill(const FillEvent& event);
  bool try_context_switch(std::uint32_t pid);
  void rotate_vcore(std::uint32_t pid, std::uint32_t penalty_cycles);
  /// Settles the cores, books the finished epoch (EPI, trace sample,
  /// event), lets a greedy/OS governor decide, and opens the next epoch.
  void close_epoch();
  bool at_epoch_boundary() const;
  void emit_epoch_event();
  void apply_active_count(std::uint32_t target);
  void power_down_one();
  void power_up_one();
  void migrate_vcore(std::uint32_t vid, std::uint32_t to);
  void sync_power_integral();
  power::ActivityCounts current_counts();
  std::int64_t next_boundary_after(std::uint32_t pid,
                                   std::int64_t ready) const;
  /// Sums disabled/correctable ways and usable/total bytes over every L1
  /// array (shared or private) for the fault-capacity report.
  void fault_capacity(std::uint64_t* disabled, std::uint64_t* correctable,
                      std::uint64_t* usable, std::uint64_t* total) const;

  ClusterConfig cfg_;
  SimParams params_;
  std::string benchmark_name_;
  std::int64_t now_ = 0;
  /// Cached min of core_next_tick_: the core scan runs only on cycles
  /// where some core actually ticks, and the event-driven clock jumps to
  /// it when the cache side is quiescent. A wake lowers it.
  std::int64_t next_core_tick_ = 0;

  std::vector<cpu::VirtualCore> vcores_;
  std::vector<cpu::PhysicalCore> cores_;
  /// The one clock representation per physical core, kept out of
  /// PhysicalCore so the per-cycle tick scan walks one contiguous array.
  /// core_next_tick_[p] is the next boundary tick `p` executes, or kNever
  /// while `p` waits on an event whose cycle is not known yet (a barrier
  /// waiter before the last arrival, or a gated core). credit_from_[p] is
  /// the credit anchor: the first boundary of `p` that has been neither
  /// executed nor credited. The boundaries in [anchor, next tick) are idle
  /// polls that credit_idle() credits when the clock reaches them, never
  /// ahead of it; only an elided compute burst is credited (busy) at once.
  std::vector<std::int64_t> core_next_tick_;
  std::vector<std::int64_t> credit_from_;
  std::vector<std::uint32_t> host_of_;  ///< vcore -> physical core.
  std::vector<std::uint32_t> efficiency_order_;
  /// Fastest core clock multiplier: bounds how often any core can tick.
  std::int64_t min_multiplier_ = 1;
  std::uint32_t active_count_ = 0;
  std::uint32_t finished_vcores_ = 0;

  // Shared-L1 machinery (engaged when cfg_.shared_l1).
  std::optional<SharedCacheController> dl1_ctrl_;
  std::optional<mem::CacheArray> l1i_;
  std::optional<mem::CacheArray> l1d_;
  std::vector<PendingRead> pending_reads_;
  std::vector<ServicedRead> serviced_scratch_;
  std::priority_queue<FillEvent, std::vector<FillEvent>,
                      std::greater<FillEvent>>
      fill_events_;

  // Private-L1 machinery (engaged otherwise).
  std::optional<mem::PrivateL1System> private_l1_;

  // Fault injection (respin::fault); disengaged unless the plan enables
  // it, in which case the constructor builds the cell maps and arms the
  // dynamic draw points.
  std::optional<fault::FaultInjector> injector_;
  bool stt_write_faults_ = false;
  fault::FaultInjector* fault_injector() {
    return injector_ ? &*injector_ : nullptr;
  }

  mem::Backside backside_;
  BarrierState barrier_;

  power::ActivityCounts counts_;
  std::int64_t power_integral_mark_ = 0;
  std::uint32_t powered_cores_ = 0;

  // Epoch bookkeeping. Epochs are observed whenever cfg_.governor is not
  // kNone; governor_ is engaged for the greedy and OS governors only.
  std::optional<GreedyGovernor> governor_;
  power::ActivityCounts epoch_counts_;
  std::int64_t epoch_start_ = 0;
  std::uint64_t next_epoch_instructions_ = 0;
  std::int64_t next_epoch_cycle_ = 0;
  double last_epoch_epi_ = std::numeric_limits<double>::infinity();

  // Metrics.
  util::Histogram read_hit_latency_{8};
  std::uint64_t dl1_read_hits_ = 0;
  std::uint64_t dl1_read_misses_ = 0;
  std::vector<ConsolidationSample> trace_;
  util::RunningStat active_stat_;
};

}  // namespace respin::core
