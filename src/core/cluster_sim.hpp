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
  /// Event-driven clock: when the shared-cache controller has nothing in
  /// flight, jump straight to the next scheduled event (core tick, fill
  /// return, epoch boundary) instead of stepping cycle by cycle. Results
  /// are bit-identical either way (see docs/performance.md); the switch
  /// exists so the determinism tests can pin that down.
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

  /// Runs to completion, driving the configured governor internally
  /// (greedy/OS). Oracle configurations are driven externally via
  /// run_one_epoch — see oracle.hpp.
  void run();

  /// Advances until the next epoch boundary (or completion) WITHOUT
  /// applying a governor decision; returns false when the workload is
  /// done. Used by the oracle driver.
  bool run_one_epoch();

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
  void fast_forward_idle(std::uint32_t pid);
  /// Jumps `pid`'s next tick to its first boundary at or after `ready`,
  /// crediting the skipped boundary ticks as idle polls. Callers guard
  /// eligibility (cycle_skip, single resident thread); under observed
  /// epochs settle_skipped_ticks() takes back the credits that a jump
  /// carried past the next boundary.
  void jump_idle_to(std::uint32_t pid, std::int64_t ready);
  /// Brings every jumped or parked core back to its first boundary at or
  /// after now_, so the epoch bookkeeping, the governor and an oracle
  /// snapshot see exactly the cycle-by-cycle state (see the definition).
  void settle_skipped_ticks();
  void execute_vcore(std::uint32_t pid, std::uint32_t vid);
  /// Replays the interior of a compute run in a tight loop (identical
  /// arithmetic, no per-tick cluster scan) and jumps the core's next
  /// boundary past the elided ticks. See the comment in the definition.
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
  void on_epoch_boundary();
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
  /// it when the cache side is quiescent.
  std::int64_t next_core_tick_ = 0;
  /// True when epoch boundaries are observable (a governor is configured
  /// or run_one_epoch drives the sim). The clock then stops on boundary
  /// cycles, each boundary settles the skipped ticks first, and compute
  /// bursts are elided only inside a window the boundary cannot fall in.
  bool epoch_watched_ = false;

  std::vector<cpu::VirtualCore> vcores_;
  std::vector<cpu::PhysicalCore> cores_;
  /// Next core-cycle boundary per physical core, kept out of PhysicalCore
  /// so the per-cycle tick scan walks one contiguous array.
  std::vector<std::int64_t> core_next_tick_;
  /// Boundary tick a barrier-parked core would next have polled on, or
  /// kNever when the core is live. A parked core has core_next_tick_ set
  /// to kNever (no boundary polls while it waits); barrier completion —
  /// or settle_skipped_ticks() at an epoch boundary or at the end of a
  /// run — restores the schedule and credits the skipped polls as idle
  /// ticks.
  std::vector<std::int64_t> parked_at_;
  /// Set when a barrier completion moves another core's next tick backward
  /// (unparking): the fold-as-you-go minimum in the tick scan is then stale
  /// and must be recomputed before the clock advances.
  bool tick_rescan_needed_ = false;
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

  // Epoch bookkeeping.
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
