#include "core/cluster_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "nvsim/tech_backend.hpp"
#include "util/require.hpp"

namespace respin::core {

namespace {
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
/// Private store path: buffer depth before the core stalls on stores.
constexpr std::uint32_t kPrivateStoreBufferDepth = 8;
}  // namespace

ClusterSim::ClusterSim(ClusterConfig config,
                       const workload::WorkloadSpec& spec,
                       const SimParams& params)
    : ClusterSim(std::move(config), spec.name,
                 workload::synthetic_factory(spec, params.workload_scale,
                                             params.seed),
                 params) {}

ClusterSim::ClusterSim(ClusterConfig config, std::string benchmark_name,
                       const workload::OpSourceFactory& sources,
                       const SimParams& params)
    : cfg_(std::move(config)),
      params_(params),
      benchmark_name_(std::move(benchmark_name)),
      backside_(cfg_.backside) {
  RESPIN_REQUIRE(cfg_.multipliers.size() == cfg_.cluster_cores,
                 "config must carry one multiplier per core");

  // One virtual core (thread) per physical core, as in the paper.
  vcores_.reserve(cfg_.cluster_cores);
  cores_.resize(cfg_.cluster_cores);
  core_next_tick_.resize(cfg_.cluster_cores);
  host_of_.resize(cfg_.cluster_cores);
  for (std::uint32_t c = 0; c < cfg_.cluster_cores; ++c) {
    vcores_.emplace_back(sources(c, cfg_.cluster_cores));
    RESPIN_REQUIRE(static_cast<bool>(vcores_.back().work),
                   "op-source factory returned an empty stream");
    vcores_.back().until_fetch = cfg_.core_timing.instructions_per_fetch;
    cores_[c].multiplier = cfg_.multipliers[c];
    cores_[c].powered_on = true;
    cores_[c].vcores = {c};
    core_next_tick_[c] = cores_[c].multiplier;  // First boundary.
    cores_[c].quantum_remaining = cfg_.core_timing.hw_quantum_instructions;
    cores_[c].os_next_switch = cfg_.os_quantum_cycles;
    host_of_[c] = c;
  }
  efficiency_order_ = efficiency_ranking(cfg_.multipliers);
  min_multiplier_ =
      *std::min_element(cfg_.multipliers.begin(), cfg_.multipliers.end());
  active_count_ = cfg_.cluster_cores;
  powered_cores_ = cfg_.cluster_cores;

  if (cfg_.shared_l1) {
    dl1_ctrl_.emplace(cfg_.controller, params.seed);
    l1i_.emplace(cfg_.l1_shared_capacity, cfg_.l1_line_bytes, cfg_.l1i_ways);
    l1d_.emplace(cfg_.l1_shared_capacity, cfg_.l1_line_bytes, cfg_.l1d_ways);
    // Hybrid L1D: dedicate the first hybrid_sram_ways ways of every set to
    // SRAM (the L1I stays pure — ifetches never write).
    if (cfg_.hybrid_sram_ways > 0) {
      l1d_->set_way_partition(cfg_.hybrid_sram_ways);
    }
    pending_reads_.resize(cfg_.cluster_cores);
  } else {
    private_l1_.emplace(cfg_.private_l1);
  }

  if (params_.faults.enabled) {
    // The technology's registered backend picks the active fault model:
    // static-cell technologies (SRAM, eDRAM) get voltage-dependent cell
    // maps — eDRAM with its retention margin shifting the Vccmin mean —
    // and write-retry technologies (STT-RAM, PCM) get stochastic write
    // draws, PCM at a wear-elevated rate. See docs/faults.md and
    // docs/technologies.md. For SRAM and STT-RAM the adjustments below
    // are exact no-ops (x1.0, +0.0), keeping fault runs bit-identical to
    // the pre-registry model.
    const nvsim::TechTraits tech_traits =
        nvsim::TechnologyRegistry::instance()
            .backend(cfg_.cache_tech)
            .traits();
    fault::FaultPlan plan = params_.faults;
    plan.stt.write_fail_prob *= tech_traits.write_fail_multiplier;
    plan.sram.vccmin_mean += tech_traits.vccmin_shift_v;
    injector_.emplace(plan, cfg_.vth_mean);
    // Write-retry draws are per-array-write and technology-wide; a hybrid
    // L1D mixes classes within one array, so retry injection is not yet
    // modeled there (documented limitation — docs/technologies.md).
    stt_write_faults_ = tech_traits.write_retry_faults &&
                        plan.stt.write_fail_prob > 0.0 &&
                        cfg_.hybrid_sram_ways == 0;
    if (tech_traits.static_cell_faults) {
      std::vector<double> vths(cfg_.cluster_cores, cfg_.vth_mean);
      for (std::size_t c = 0; c < vths.size() && c < cfg_.core_vth.size();
           ++c) {
        vths[c] = cfg_.core_vth[c];
      }
      if (cfg_.shared_l1) {
        // The shared arrays sit in one physical bank; the slowest
        // (highest-Vth) region they span governs their margin.
        const double worst = *std::max_element(vths.begin(), vths.end());
        l1i_->apply_fault_map(injector_->sram_line_map(
            "l1i", l1i_->set_count(), l1i_->ways(), cfg_.l1_line_bytes,
            cfg_.cache_vdd, worst));
        l1d_->apply_fault_map(injector_->sram_line_map(
            "l1d", l1d_->set_count(), l1d_->ways(), cfg_.l1_line_bytes,
            cfg_.cache_vdd, worst));
      } else {
        private_l1_->apply_sram_fault_maps(*injector_, cfg_.cache_vdd, vths);
      }
    }
    if (private_l1_) {
      private_l1_->configure_faults(params_.faults.ecc.correction_cycles,
                                    stt_write_faults_,
                                    params_.faults.stt.retry_cycles);
    }
  }

  if (cfg_.governor == GovernorKind::kGreedy ||
      cfg_.governor == GovernorKind::kOs) {
    governor_.emplace(cfg_.governor_params, cfg_.cluster_cores);
  }
  next_epoch_instructions_ = cfg_.governor_params.epoch_instructions;
  next_epoch_cycle_ = cfg_.os_epoch_cycles;

  credit_from_ = core_next_tick_;
  next_core_tick_ = min_multiplier_;
}

std::int64_t ClusterSim::next_boundary_after(std::uint32_t pid,
                                             std::int64_t ready) const {
  // The first core-cycle boundary of core `pid` at or after `ready`,
  // measured from its boundary phase (boundaries are at k * multiplier).
  const std::int64_t m = cores_[pid].multiplier;
  return ((ready + m - 1) / m) * m;
}

void ClusterSim::run() {
  while (run_one_epoch()) {
  }
}

bool ClusterSim::run_one_epoch() {
  while (!done() && now_ < params_.max_cycles) {
    step_cycle();
    if (cfg_.governor != GovernorKind::kNone && at_epoch_boundary()) {
      close_epoch();
      return true;
    }
  }
  // A run cut short by max_cycles can leave cores jumped or parked; a
  // finished run has none, so there the settle changes nothing.
  settle_skipped_ticks();
  sync_power_integral();
  return false;
}

ClusterSim ClusterSim::snapshot() const {
  ClusterSim copy = *this;
  copy.params_.trace = nullptr;
  return copy;
}

void ClusterSim::credit_idle(std::uint32_t pid, std::int64_t t) {
  std::int64_t& anchor = credit_from_[pid];
  if (t <= anchor) return;
  cores_[pid].idle_cycles +=
      static_cast<std::uint64_t>((t - anchor) / cores_[pid].multiplier);
  anchor = t;
}

void ClusterSim::settle_skipped_ticks() {
  // The cycle-by-cycle clock has executed every powered core's boundaries
  // before now_ and has its next tick on the first boundary at or after
  // now_. Credit the polls a jumped or parked core skipped up to there and
  // put its next tick there; on its next tick it polls once and jumps, or
  // parks, again. A core whose anchor is at or past that boundary has
  // skipped nothing and keeps its tick (every core of a finished run; a
  // core powered up at the last boundary is due later still). Gated cores
  // have no ticks; power_up_one reschedules them.
  next_core_tick_ = kNever;
  for (std::uint32_t c = 0; c < cores_.size(); ++c) {
    if (cores_[c].powered_on) {
      credit_idle(c, next_boundary_after(c, now_));
      core_next_tick_[c] = credit_from_[c];
    }
    next_core_tick_ = std::min(next_core_tick_, core_next_tick_[c]);
  }
}

bool ClusterSim::at_epoch_boundary() const {
  if (cfg_.governor == GovernorKind::kOs) {
    return now_ >= next_epoch_cycle_;
  }
  return counts_.instructions >= next_epoch_instructions_;
}

void ClusterSim::close_epoch() {
  settle_skipped_ticks();
  const power::ActivityCounts delta = current_counts() - epoch_counts_;
  const power::EnergyBreakdown energy = power::compute_energy(
      cfg_.power, delta, (now_ - epoch_start_) * cfg_.clocking.cache_period);
  last_epoch_epi_ =
      power::energy_per_instruction(energy, delta.instructions);
  trace_.push_back(
      ConsolidationSample{now_, active_count_, last_epoch_epi_});
  active_stat_.add(active_count_);
  emit_epoch_event();

  // Decide before the next epoch's books open: a gated private core's
  // flush writebacks then fall into neither epoch (the golden grid pins
  // this order).
  if (governor_) {
    const std::uint32_t target =
        governor_->decide(last_epoch_epi_, active_count_);
    if (target != active_count_) apply_active_count(target);
  }

  epoch_counts_ = current_counts();
  epoch_start_ = now_;
  next_epoch_instructions_ =
      counts_.instructions + cfg_.governor_params.epoch_instructions;
  next_epoch_cycle_ = now_ + cfg_.os_epoch_cycles;
}

void ClusterSim::step_cycle() {
  if (dl1_ctrl_) {
    serviced_scratch_.clear();
    dl1_ctrl_->step(now_, serviced_scratch_);
    for (const ServicedRead& s : serviced_scratch_) handle_serviced_read(s);
  }
  while (!fill_events_.empty() && fill_events_.top().cycle <= now_) {
    const FillEvent event = fill_events_.top();
    fill_events_.pop();
    apply_fill(event);
  }
  if (now_ >= next_core_tick_) {
    // A barrier completion inside the scan wakes cores behind the fold
    // point by lowering next_core_tick_ (arrive_barrier).
    next_core_tick_ = kNever;
    std::int64_t next = kNever;
    for (std::uint32_t pid = 0; pid < cores_.size(); ++pid) {
      if (core_next_tick_[pid] == now_) step_core(pid);
      next = std::min(next, core_next_tick_[pid]);
    }
    next_core_tick_ = std::min(next_core_tick_, next);
  }
  advance_clock();
}

void ClusterSim::advance_clock() {
  const std::int64_t next = now_ + 1;
  std::int64_t target = next;
  // Event-driven clock: jump to the soonest cycle where anything can
  // change — a core tick, a fill-event return, the shared-cache
  // controller's next activity (a request becoming visible or a drain
  // opportunity; while a visible read waits it arbitrates and ages
  // priority registers every cycle, so the jump collapses to +1), and the
  // epoch horizon (max_cycles, an observed epoch boundary). No jump once
  // the workload has completed: the run loop exits at the next cycle, and
  // the finish time must match the cycle-by-cycle clock.
  if (params_.cycle_skip && !done()) {
    target = next_core_tick_;
    if (!fill_events_.empty()) {
      target = std::min(target, fill_events_.top().cycle);
    }
    // The controller scan is the costliest bound, so consult it only when
    // the cheaper bounds leave room to jump at all.
    if (dl1_ctrl_ && target > next) {
      target = std::min(target, dl1_ctrl_->next_activity_cycle(now_));
    }
    target = std::max(std::min(target, epoch_horizon(0)), next);
    if (dl1_ctrl_ && target > next) {
      dl1_ctrl_->note_skipped_cycles(target - next);
    }
  }
  now_ = target;
}

void ClusterSim::step_core(std::uint32_t pid) {
  cpu::PhysicalCore& p = cores_[pid];
  credit_idle(pid, now_);  // The polls a jump or a park skipped.
  core_next_tick_[pid] = credit_from_[pid] = now_ + p.multiplier;

  if (p.stalled_until > now_) {
    ++p.idle_cycles;
    return;
  }
  if (p.vcores.empty()) {
    ++p.idle_cycles;
    return;
  }

  // Forced timeslice rotation.
  const bool os_mode = cfg_.governor == GovernorKind::kOs;
  if (p.vcores.size() > 1) {
    if (os_mode) {
      if (now_ >= p.os_next_switch) {
        rotate_vcore(pid, cfg_.core_timing.os_switch_cycles);
        p.os_next_switch = now_ + cfg_.os_quantum_cycles;
        ++p.idle_cycles;
        return;
      }
    } else if (p.quantum_remaining == 0) {
      rotate_vcore(pid, cfg_.core_timing.context_switch_cycles);
      ++p.idle_cycles;
      return;
    }
  }

  if (p.run_index >= p.vcores.size()) p.run_index = 0;
  const std::uint32_t vid = p.vcores[p.run_index];
  cpu::VirtualCore& v = vcores_[vid];

  switch (v.state) {
    case cpu::WaitState::kRunnable:
      execute_vcore(pid, vid);
      ++p.busy_cycles;
      fast_forward_idle(pid);
      return;
    case cpu::WaitState::kMemory:
      if (now_ >= v.mem_ready_cycle) {
        v.state = cpu::WaitState::kRunnable;
        if (v.mem_commit_pending) {
          v.mem_commit_pending = false;
          v.has_op = false;
          commit_instructions(pid, vid, 1);
        }
        // The next operation issues in the same cycle the data returns, so
        // a 1-core-cycle hit really costs one cycle.
        if (v.state == cpu::WaitState::kRunnable) execute_vcore(pid, vid);
        ++p.busy_cycles;
        fast_forward_idle(pid);
        return;
      }
      break;
    case cpu::WaitState::kBarrier:
      if (barrier_released(v)) {
        v.state = cpu::WaitState::kRunnable;
        execute_vcore(pid, vid);
        ++p.busy_cycles;
        fast_forward_idle(pid);
        return;
      }
      break;
    case cpu::WaitState::kStoreBuffer:
      if (issue_store(pid, vid)) {
        ++p.busy_cycles;
        fast_forward_idle(pid);
        return;
      }
      break;
    case cpu::WaitState::kFinished:
      if (p.vcores.size() > 1) {
        // A finished thread yields its slot immediately in both modes.
        p.run_index = (p.run_index + 1) % p.vcores.size();
      }
      break;
  }

  // Current vcore cannot progress: hardware mode switches on stall.
  ++p.idle_cycles;
  if (!os_mode && p.vcores.size() > 1) {
    try_context_switch(pid);
    return;
  }
  fast_forward_idle(pid);
}

void ClusterSim::fast_forward_idle(std::uint32_t pid) {
  // Idle-tick elision: a stalled core whose wake-up cycle is exactly
  // computable ticks only idle until then, so its next tick jumps
  // straight there; the polls in between are credited when it ticks. A
  // barrier waiter whose release cycle is not fixed yet parks instead: no
  // ticks at all until the last arrival wakes it (arrive_barrier) or a
  // settle puts it back on its boundary. Power gating, migration and
  // epoch sampling happen only at epoch boundaries, after the settle.
  if (!may_skip_ticks(pid)) return;
  cpu::PhysicalCore& p = cores_[pid];
  const cpu::VirtualCore& v = vcores_[p.vcores.front()];
  std::int64_t ready = 0;
  switch (v.state) {
    case cpu::WaitState::kMemory:
      // kNever means the shared controller still holds the read; the
      // service cycle is unknown, so the core must keep polling.
      if (v.mem_ready_cycle == kNever) return;
      ready = v.mem_ready_cycle;
      break;
    case cpu::WaitState::kBarrier:
      // Only once the barrier has completed is the release cycle fixed
      // (no further arrival can move it: every other thread is past it).
      // Until then the waiter cannot progress before another core's tick
      // brings the last arrival: park it.
      if (barrier_.completed < static_cast<std::int64_t>(v.barrier_id)) {
        core_next_tick_[pid] = kNever;
        return;
      }
      ready = barrier_.last_release;
      break;
    case cpu::WaitState::kStoreBuffer: {
      // Private path only: the drain backlog is this core's own state.
      // Shared-path retries go through the controller's store queue, whose
      // occupancy depends on the other cores.
      if (cfg_.shared_l1) return;
      const std::int64_t store_cost =
          static_cast<std::int64_t>(cfg_.private_store_cycles) *
          p.multiplier;
      ready = p.store_drain_free_at -
              kPrivateStoreBufferDepth * store_cost;
      break;
    }
    default:
      return;
  }
  jump_idle_to(pid, ready);
}

void ClusterSim::jump_idle_to(std::uint32_t pid, std::int64_t ready) {
  ready = std::max(ready, cores_[pid].stalled_until);
  core_next_tick_[pid] =
      std::max(credit_from_[pid], next_boundary_after(pid, ready));
}

std::int64_t ClusterSim::epoch_horizon(std::int64_t burst_m) const {
  switch (cfg_.governor) {
    case GovernorKind::kNone:
      return params_.max_cycles;
    case GovernorKind::kOs:
      return std::min(params_.max_cycles, next_epoch_cycle_);
    case GovernorKind::kGreedy:
    case GovernorKind::kOracle:
      break;
  }
  // Instruction-count epochs end once counts_.instructions reaches
  // next_epoch_instructions_. A pending boundary is handled at now_ + 1,
  // exactly as the cycle-by-cycle clock does. Otherwise only a core tick
  // commits instructions, and the clock stops on every one.
  if (counts_.instructions >= next_epoch_instructions_) return now_ + 1;
  if (burst_m == 0) return params_.max_cycles;
  // A burst window [now_, now_ + k * burst_m] may be elided only while
  // the most it can commit stays below the boundary, so no cycle in it
  // can reach the boundary: issue_width per elided tick of the bursting
  // core, plus issue_width + 1 (a returning load and a full issue group)
  // per tick of every other powered core, each ticking at most
  // k * burst_m / min_multiplier_ + 1 times. Scaled by mm =
  // min_multiplier_ to stay integral, that reads
  //   (counts + iw * k) * mm + others * (k * burst_m + mm) < limit * mm.
  const auto mm = static_cast<std::uint64_t>(min_multiplier_);
  const std::uint64_t iw = cfg_.core_timing.issue_width;
  const std::uint64_t others = (iw + 1) * (powered_cores_ - 1);
  const std::uint64_t reserve = (counts_.instructions + others) * mm;
  const std::uint64_t limit = next_epoch_instructions_ * mm;
  if (limit <= reserve) return now_ + 1;
  const std::uint64_t max_ticks =
      (limit - reserve - 1) /
      (iw * mm + others * static_cast<std::uint64_t>(burst_m));
  return std::min(params_.max_cycles,
                  now_ + (static_cast<std::int64_t>(max_ticks) + 1) * burst_m);
}

void ClusterSim::elide_compute_ticks(std::uint32_t pid, std::uint32_t vid) {
  // Compute-burst elision: the interior of a compute run is a closed
  // per-core recurrence — each tick adds current_ipc to the issue
  // accumulator, commits the integer part, and touches nothing the rest
  // of the cluster can observe (no memory op, no barrier, no ifetch).
  // Replay that recurrence here, tick for tick in the exact same IEEE
  // arithmetic, and jump the core's next boundary past the elided ticks.
  // Boundary ticks (op completion or an ifetch trigger) are left to the
  // normal path so their side effects land on the right cycle.
  //
  // Unlike an idle poll, an elided tick is credited at once: its
  // instructions may be what triggers an epoch boundary, so every elided
  // tick must fall before the epoch horizon.
  if (!may_skip_ticks(pid)) return;
  cpu::PhysicalCore& p = cores_[pid];
  cpu::VirtualCore& v = vcores_[vid];
  if (v.state != cpu::WaitState::kRunnable) return;

  const std::int64_t m = p.multiplier;
  const std::int64_t horizon = epoch_horizon(m);
  std::int64_t tick = now_ + m;  // First candidate: the very next boundary.
  double acc = v.issue_accumulator;
  std::uint32_t remaining = v.compute_remaining;
  std::uint32_t until_fetch = v.until_fetch;
  std::uint64_t committed = 0;
  std::int64_t elided = 0;
  while (tick < horizon) {
    // Evaluate the candidate tick without touching `acc`: a boundary tick
    // (op completion or ifetch trigger) must re-run this arithmetic on the
    // live vcore state, so its accumulator increment must not stick here.
    const double ticked = acc + v.current_ipc;
    const auto issued = static_cast<std::uint32_t>(ticked);
    if (issued >= remaining) break;    // Op-completion tick: run normally.
    if (until_fetch <= issued) break;  // Ifetch tick: run normally.
    acc = ticked - issued;
    remaining -= issued;
    until_fetch -= issued;
    committed += issued;
    ++elided;
    tick += m;
  }
  if (elided == 0) return;
  v.issue_accumulator = acc;
  v.compute_remaining = remaining;
  v.until_fetch = until_fetch;
  v.instructions += committed;
  counts_.instructions += committed;
  p.quantum_remaining -= std::min<std::uint64_t>(p.quantum_remaining,
                                                 committed);
  p.busy_cycles += static_cast<std::uint64_t>(elided);
  core_next_tick_[pid] = credit_from_[pid] = tick;
}

bool ClusterSim::try_context_switch(std::uint32_t pid) {
  cpu::PhysicalCore& p = cores_[pid];
  const std::size_t n = p.vcores.size();
  for (std::size_t offset = 1; offset < n; ++offset) {
    const std::size_t idx = (p.run_index + offset) % n;
    const cpu::VirtualCore& cand = vcores_[p.vcores[idx]];
    const bool progressable =
        cand.state == cpu::WaitState::kRunnable ||
        (cand.state == cpu::WaitState::kMemory &&
         now_ >= cand.mem_ready_cycle) ||
        cand.state == cpu::WaitState::kStoreBuffer ||
        (cand.state == cpu::WaitState::kBarrier && barrier_released(cand));
    if (progressable) {
      p.run_index = idx;
      p.quantum_remaining = cfg_.core_timing.hw_quantum_instructions;
      p.stalled_until =
          now_ + cfg_.core_timing.context_switch_cycles * p.multiplier;
      return true;
    }
  }
  return false;
}

void ClusterSim::rotate_vcore(std::uint32_t pid, std::uint32_t penalty) {
  cpu::PhysicalCore& p = cores_[pid];
  p.run_index = (p.run_index + 1) % p.vcores.size();
  p.quantum_remaining = cfg_.core_timing.hw_quantum_instructions;
  p.stalled_until = now_ + static_cast<std::int64_t>(penalty) * p.multiplier;
}

void ClusterSim::execute_vcore(std::uint32_t pid, std::uint32_t vid) {
  cpu::VirtualCore& v = vcores_[vid];

  if (!v.has_op) {
    v.op = v.work.next();
    v.has_op = true;
    if (v.op.kind == workload::OpKind::kCompute) {
      v.compute_remaining = v.op.count;
      v.current_ipc = std::min(
          v.op.ipc, static_cast<double>(cfg_.core_timing.issue_width));
      v.issue_accumulator = 0.0;
    }
  }

  switch (v.op.kind) {
    case workload::OpKind::kFinished:
      v.state = cpu::WaitState::kFinished;
      v.has_op = false;
      ++finished_vcores_;
      return;
    case workload::OpKind::kCompute: {
      v.issue_accumulator += v.current_ipc;
      auto issued = static_cast<std::uint32_t>(v.issue_accumulator);
      issued = std::min(issued, v.compute_remaining);
      v.issue_accumulator -= issued;
      v.compute_remaining -= issued;
      if (v.compute_remaining == 0) v.has_op = false;
      if (issued > 0) commit_instructions(pid, vid, issued);
      if (v.has_op) elide_compute_ticks(pid, vid);
      return;
    }
    case workload::OpKind::kLoad:
      issue_load(pid, vid);
      return;
    case workload::OpKind::kStore:
      if (!issue_store(pid, vid)) v.state = cpu::WaitState::kStoreBuffer;
      return;
    case workload::OpKind::kBarrier:
      arrive_barrier(vid);
      return;
  }
}

void ClusterSim::issue_load(std::uint32_t pid, std::uint32_t vid) {
  cpu::VirtualCore& v = vcores_[vid];
  const mem::Addr addr = v.op.addr;

  if (cfg_.shared_l1) {
    if (pending_reads_[pid].valid) {
      // Structural hazard: the per-core request register still holds the
      // previous (context-switched-out) thread's read. Retry next cycle.
      v.state = cpu::WaitState::kMemory;
      v.mem_commit_pending = false;
      v.mem_ready_cycle = now_ + cores_[pid].multiplier;
      return;
    }
    dl1_ctrl_->submit_read(pid,
                           static_cast<std::uint32_t>(cores_[pid].multiplier),
                           now_);
    pending_reads_[pid] = PendingRead{true, vid, addr};
    if (cfg_.l1_crosses_domains) ++counts_.level_shifter_crossings;
    v.state = cpu::WaitState::kMemory;
    v.mem_ready_cycle = kNever;  // Set when the controller services it.
    v.mem_commit_pending = true;
    return;
  }

  const mem::PrivateAccessResult res = private_l1_->access(
      pid, addr, mem::AccessType::kLoad, backside_, fault_injector());
  if (cfg_.l1_crosses_domains) ++counts_.level_shifter_crossings;
  if (res.l1_hit && res.extra_cycles == 0) {
    // One-core-cycle hit: commit immediately.
    v.has_op = false;
    commit_instructions(pid, vid, 1);
    return;
  }
  v.state = cpu::WaitState::kMemory;
  v.mem_ready_cycle =
      std::max(next_boundary_after(pid, now_ + res.extra_cycles),
               now_ + cores_[pid].multiplier);
  v.mem_commit_pending = true;
}

bool ClusterSim::issue_store(std::uint32_t pid, std::uint32_t vid) {
  cpu::VirtualCore& v = vcores_[vid];
  const mem::Addr addr = v.op.addr;

  if (cfg_.shared_l1) {
    if (!dl1_ctrl_->submit_store(now_)) return false;
    if (cfg_.l1_crosses_domains) ++counts_.level_shifter_crossings;
    ++counts_.l1_writes;
    // Write-allocate: a store miss pulls the line in off the critical path
    // (the store buffer hides the fill latency).
    const mem::LineAddr line = mem::line_of(addr, cfg_.l1_line_bytes);
    bool corrected = false;
    bool sram_way = false;
    if (auto state = l1d_->access(line, &corrected, &sram_way)) {
      (void)state;
      if (sram_way) ++counts_.l1_sram_writes;
      l1d_->set_state(line, mem::Mesi::kModified);
      if (corrected && injector_) {
        // Read-modify-write of a SECDED-corrected word; the store buffer
        // hides the latency but the extra array read costs energy.
        injector_->note_correction();
        ++counts_.l1_reads;
        if (sram_way) ++counts_.l1_sram_reads;
      }
      if (stt_write_faults_) {
        bool exhausted = false;
        const std::uint32_t retries = injector_->draw_write_retries(&exhausted);
        counts_.l1_writes += retries;
        if (exhausted) {
          // Repeated write failure on a resident cell: retire the way and
          // write the store's data through to the backside instead.
          l1d_->disable_line(line);
          injector_->note_line_disabled();
          backside_.writeback(addr);
        }
      }
    } else {
      const mem::FillResult fill = backside_.fill(addr);
      std::int64_t latency = fill.latency_cycles;
      std::uint32_t retries = 0;
      bool exhausted = false;
      if (stt_write_faults_) {
        retries = injector_->draw_write_retries(&exhausted);
        latency += static_cast<std::int64_t>(retries) *
                   params_.faults.stt.retry_cycles;
      }
      fill_events_.push(FillEvent{now_ + latency, addr, /*instruction=*/false,
                                  retries, /*drop=*/exhausted,
                                  /*store=*/true});
    }
    v.state = cpu::WaitState::kRunnable;
    v.has_op = false;
    commit_instructions(pid, vid, 1);
    return true;
  }

  // Private path: the store buffer drains through the L1 write port; the
  // core stalls only when the buffer backlog exceeds its depth.
  cpu::PhysicalCore& p = cores_[pid];
  const std::int64_t m = p.multiplier;
  const std::int64_t store_cost =
      static_cast<std::int64_t>(cfg_.private_store_cycles) * m;
  const std::int64_t window = kPrivateStoreBufferDepth * store_cost;
  if (p.store_drain_free_at - now_ > window) return false;

  const mem::PrivateAccessResult res = private_l1_->access(
      pid, addr, mem::AccessType::kStore, backside_, fault_injector());
  if (cfg_.l1_crosses_domains) ++counts_.level_shifter_crossings;
  p.store_drain_free_at = std::max(p.store_drain_free_at, now_) + store_cost +
                          res.extra_cycles;
  v.state = cpu::WaitState::kRunnable;
  v.has_op = false;
  commit_instructions(pid, vid, 1);
  return true;
}

void ClusterSim::arrive_barrier(std::uint32_t vid) {
  cpu::VirtualCore& v = vcores_[vid];
  // The arrival update (fetch-and-increment on the barrier line)
  // serializes across arriving cores; under private caches each arrival is
  // an ownership transfer (directory round trip), under the shared L1 it
  // is a couple of fast-cache cycles.
  const std::int64_t arrival_done =
      std::max(barrier_.line_free_at, now_) + cfg_.barrier_arrival_cycles;
  barrier_.line_free_at = arrival_done;
  barrier_.latest_arrival = std::max(barrier_.latest_arrival, arrival_done);
  counts_.coherence_messages += cfg_.barrier_arrival_messages;

  v.state = cpu::WaitState::kBarrier;
  v.barrier_id = v.op.addr;
  v.has_op = false;
  ++barrier_.arrived;

  // A waiter parks in the step_core tail (fast_forward_idle).
  if (barrier_.arrived < vcores_.size()) return;

  barrier_.completed = static_cast<std::int64_t>(v.barrier_id);
  barrier_.last_release =
      barrier_.latest_arrival + cfg_.barrier_release_cycles +
      cfg_.barrier_post_release_cycles;
  barrier_.arrived = 0;
  barrier_.latest_arrival = 0;
  // Release invalidates every waiter's cached flag copy (private mode).
  counts_.coherence_messages +=
      cfg_.barrier_arrival_messages * vcores_.size();

  // The release cycle is now fixed: wake every parked waiter (a powered
  // core with no next tick) at the release; the polls it skipped are
  // credited when it ticks there. The arriving core itself never parked;
  // its step_core tail jumps it to the release.
  for (std::uint32_t c = 0; c < cores_.size(); ++c) {
    if (core_next_tick_[c] != kNever || !cores_[c].powered_on) continue;
    jump_idle_to(c, barrier_.last_release);
    next_core_tick_ = std::min(next_core_tick_, core_next_tick_[c]);
  }
}

bool ClusterSim::barrier_released(const cpu::VirtualCore& v) const {
  return barrier_.completed >= static_cast<std::int64_t>(v.barrier_id) &&
         now_ >= barrier_.last_release;
}

void ClusterSim::commit_instructions(std::uint32_t pid, std::uint32_t vid,
                                     std::uint32_t n) {
  cpu::VirtualCore& v = vcores_[vid];
  cpu::PhysicalCore& p = cores_[pid];
  v.instructions += n;
  counts_.instructions += n;
  p.quantum_remaining -= std::min<std::uint64_t>(p.quantum_remaining, n);

  if (v.until_fetch <= n) {
    v.until_fetch += cfg_.core_timing.instructions_per_fetch;
    do_ifetch(pid, vid);
  }
  v.until_fetch -= n;
}

void ClusterSim::do_ifetch(std::uint32_t pid, std::uint32_t vid) {
  cpu::VirtualCore& v = vcores_[vid];
  const mem::Addr addr = v.work.next_ifetch_addr();

  if (cfg_.shared_l1) {
    ++counts_.l1_reads;
    if (cfg_.l1_crosses_domains) ++counts_.level_shifter_crossings;
    const mem::LineAddr line = mem::line_of(addr, cfg_.l1_line_bytes);
    bool corrected = false;
    if (l1i_->access(line, &corrected).has_value()) {
      if (corrected && injector_) {
        // The fetched word round-trips SECDED before issue resumes.
        injector_->note_correction();
        ++counts_.l1_reads;
        v.state = cpu::WaitState::kMemory;
        v.mem_ready_cycle = next_boundary_after(
            pid, now_ + params_.faults.ecc.correction_cycles);
        v.mem_commit_pending = false;
      }
      return;  // Overlapped fetch.
    }
    const mem::FillResult fill = backside_.fill(addr);
    std::int64_t extra = 0;
    if (l1i_->can_insert(line)) {
      ++counts_.l1_writes;
      bool exhausted = false;
      if (stt_write_faults_) {
        const std::uint32_t retries = injector_->draw_write_retries(&exhausted);
        counts_.l1_writes += retries;
        extra = static_cast<std::int64_t>(retries) *
                params_.faults.stt.retry_cycles;
      }
      // An exhausted fill write is dropped; the fetch itself still
      // completes from the L2 copy.
      if (!exhausted) l1i_->insert(line, mem::Mesi::kExclusive);
    }
    v.state = cpu::WaitState::kMemory;
    v.mem_ready_cycle =
        next_boundary_after(pid, now_ + fill.latency_cycles + extra + 2);
    v.mem_commit_pending = false;
    return;
  }

  const mem::PrivateAccessResult res = private_l1_->access(
      pid, addr, mem::AccessType::kIfetch, backside_, fault_injector());
  if (cfg_.l1_crosses_domains) ++counts_.level_shifter_crossings;
  if (!res.l1_hit || res.extra_cycles > 0) {
    v.state = cpu::WaitState::kMemory;
    v.mem_ready_cycle = next_boundary_after(pid, now_ + res.extra_cycles);
    v.mem_commit_pending = false;
  }
}

void ClusterSim::handle_serviced_read(const ServicedRead& serviced) {
  PendingRead& pending = pending_reads_[serviced.core];
  RESPIN_REQUIRE(pending.valid, "controller serviced a phantom read");
  cpu::VirtualCore& v = vcores_[pending.vcore];
  const std::int64_t m = cores_[serviced.core].multiplier;

  ++counts_.l1_reads;
  const mem::LineAddr line = mem::line_of(pending.addr, cfg_.l1_line_bytes);
  bool corrected = false;
  bool sram_way = false;
  const bool hit = l1d_->access(line, &corrected, &sram_way).has_value();
  if (hit) {
    if (sram_way) ++counts_.l1_sram_reads;
    std::int64_t latency_cycles =
        serviced.serviced_at + 1 - serviced.issued_at;
    if (corrected && injector_) {
      // SECDED round trip before the data is usable: the hit gets slower
      // and the array is read again after the fix.
      injector_->note_correction();
      ++counts_.l1_reads;
      if (sram_way) ++counts_.l1_sram_reads;
      latency_cycles += params_.faults.ecc.correction_cycles;
    }
    const auto core_cycles =
        static_cast<std::uint64_t>((latency_cycles + m - 1) / m);
    read_hit_latency_.add(core_cycles);
    ++dl1_read_hits_;
    v.mem_ready_cycle =
        serviced.issued_at + static_cast<std::int64_t>(core_cycles) * m;
  } else {
    ++dl1_read_misses_;
    const mem::FillResult fill = backside_.fill(pending.addr);
    std::int64_t fill_latency = fill.latency_cycles;
    std::uint32_t retries = 0;
    bool exhausted = false;
    if (stt_write_faults_) {
      // The fill's write retries are drawn here (a deterministic event
      // point) and their latency folds into the response cycle.
      retries = injector_->draw_write_retries(&exhausted);
      fill_latency += static_cast<std::int64_t>(retries) *
                      params_.faults.stt.retry_cycles;
    }
    const std::int64_t response = serviced.serviced_at + fill_latency;
    fill_events_.push(FillEvent{response, pending.addr, /*instruction=*/false,
                                retries, /*drop=*/exhausted,
                                /*store=*/false});
    const std::int64_t latency = response + 1 - serviced.issued_at;
    v.mem_ready_cycle = serviced.issued_at + ((latency + m - 1) / m) * m;
  }
  pending.valid = false;
}

void ClusterSim::apply_fill(const FillEvent& event) {
  // The fill occupies the write port and writes the data array.
  dl1_ctrl_->submit_fill(event.cycle);
  mem::CacheArray& array = event.instruction ? *l1i_ : *l1d_;
  const mem::LineAddr line = mem::line_of(event.addr, cfg_.l1_line_bytes);
  if (!array.can_insert(line)) {
    // Every way of the target set is disabled: the line bypasses the
    // cache. A store-allocate fill carries store data, which writes
    // through instead.
    if (event.store) backside_.writeback(event.addr);
    return;
  }
  ++counts_.l1_writes;
  counts_.l1_writes += event.retries;  // Each retry pulses the array again.
  if (event.drop) {
    // Write retries exhausted at draw time: the fill is dropped. A clean
    // copy still lives below; store data writes through.
    if (event.store) backside_.writeback(event.addr);
    return;
  }
  if (array.probe(line).has_value()) return;  // Raced with another fill.
  // On a hybrid L1D, steer store-allocate fills (write-biased lines) into
  // the SRAM way class; pure arrays and the L1I ignore the hint.
  const mem::WayClassHint hint = event.store ? mem::WayClassHint::kPreferSram
                                             : mem::WayClassHint::kAny;
  bool placed_sram = false;
  if (auto evicted = array.insert(line, mem::Mesi::kExclusive, hint,
                                  &placed_sram)) {
    if (evicted->dirty) {
      backside_.writeback(evicted->line * cfg_.l1_line_bytes);
    }
  }
  if (placed_sram) counts_.l1_sram_writes += 1 + event.retries;
}

void ClusterSim::set_active_cores(std::uint32_t count) {
  RESPIN_REQUIRE(count >= 1 && count <= cfg_.cluster_cores,
                 "active core count out of range");
  if (count != active_count_) apply_active_count(count);
}

void ClusterSim::migrate_vcore(std::uint32_t vid, std::uint32_t to) {
  const std::uint32_t from = host_of_[vid];
  if (from == to) return;
  auto& src = cores_[from].vcores;
  const auto it = std::find(src.begin(), src.end(), vid);
  RESPIN_REQUIRE(it != src.end(), "vcore not on its recorded host");
  const auto idx = static_cast<std::size_t>(it - src.begin());
  src.erase(it);
  if (cores_[from].run_index > idx) --cores_[from].run_index;
  if (cores_[from].run_index >= src.size()) cores_[from].run_index = 0;
  cores_[to].vcores.push_back(vid);
  host_of_[vid] = to;

  // Migration cost: drain, PC + register-file transfer, warm-up on the
  // target (paper SIII.D). Charged to the moved thread.
  cpu::VirtualCore& v = vcores_[vid];
  const std::int64_t penalty =
      static_cast<std::int64_t>(cfg_.core_timing.migration_cycles) *
      cores_[to].multiplier;
  if (v.state == cpu::WaitState::kRunnable ||
      v.state == cpu::WaitState::kStoreBuffer) {
    v.state = cpu::WaitState::kMemory;
    v.mem_commit_pending = false;
    v.mem_ready_cycle = now_ + penalty;
  } else if (v.state == cpu::WaitState::kMemory &&
             v.mem_ready_cycle != kNever) {
    v.mem_ready_cycle = std::max(v.mem_ready_cycle, now_) + penalty;
  }
  // Barrier-blocked and finished vcores migrate for free: their context is
  // transferred while they wait.
}

void ClusterSim::power_down_one() {
  // Least efficient active core (paper SIII.C: slowest first).
  std::uint32_t victim = cfg_.cluster_cores;
  for (auto it = efficiency_order_.rbegin(); it != efficiency_order_.rend();
       ++it) {
    if (cores_[*it].powered_on) {
      victim = *it;
      break;
    }
  }
  RESPIN_REQUIRE(victim < cfg_.cluster_cores, "no active core to gate");

  // Reassign its virtual cores round-robin across the remaining active
  // cores, starting from the most efficient.
  std::vector<std::uint32_t> remaining;
  for (std::uint32_t pid : efficiency_order_) {
    if (pid != victim && cores_[pid].powered_on) remaining.push_back(pid);
  }
  RESPIN_REQUIRE(!remaining.empty(), "cannot gate the last core");
  const std::vector<std::uint32_t> orphans = cores_[victim].vcores;
  std::size_t cursor = 0;
  for (std::uint32_t vid : orphans) {
    migrate_vcore(vid, remaining[cursor % remaining.size()]);
    ++cursor;
  }

  cpu::PhysicalCore& p = cores_[victim];
  p.powered_on = false;
  p.run_index = 0;
  // A gated core's ticks would do nothing; it has none until power_up_one.
  core_next_tick_[victim] = kNever;
  if (private_l1_) private_l1_->flush_core(victim, backside_);
  --powered_cores_;
  --active_count_;
}

void ClusterSim::power_up_one() {
  // Most efficient inactive core.
  std::uint32_t target = cfg_.cluster_cores;
  for (std::uint32_t pid : efficiency_order_) {
    if (!cores_[pid].powered_on) {
      target = pid;
      break;
    }
  }
  RESPIN_REQUIRE(target < cfg_.cluster_cores, "no gated core to wake");

  cpu::PhysicalCore& p = cores_[target];
  p.powered_on = true;
  p.run_index = 0;
  p.quantum_remaining = cfg_.core_timing.hw_quantum_instructions;
  p.os_next_switch = now_ + cfg_.os_quantum_cycles;
  p.stalled_until =
      now_ + cfg_.core_timing.power_on_stall_cycles * p.multiplier;
  // Wake: the gated boundaries were neither polled nor are they idle, so
  // the credit anchor starts at the first tick.
  core_next_tick_[target] = credit_from_[target] =
      next_boundary_after(target, now_ + 1);
  next_core_tick_ = std::min(next_core_tick_, core_next_tick_[target]);
  ++powered_cores_;
  ++active_count_;

  // Rebalance: shift load from the fullest cores onto the fresh one.
  const std::size_t fair =
      (vcores_.size() + active_count_ - 1) / active_count_;
  while (p.vcores.size() < fair) {
    std::uint32_t donor = cfg_.cluster_cores;
    std::size_t most = p.vcores.size() + 1;
    for (std::uint32_t pid = 0; pid < cores_.size(); ++pid) {
      if (pid == target || !cores_[pid].powered_on) continue;
      if (cores_[pid].vcores.size() > most) {
        most = cores_[pid].vcores.size();
        donor = pid;
      }
    }
    if (donor == cfg_.cluster_cores) break;
    migrate_vcore(cores_[donor].vcores.back(), target);
  }
}

void ClusterSim::apply_active_count(std::uint32_t target) {
  sync_power_integral();
  const std::uint32_t from = active_count_;
  while (active_count_ > target) power_down_one();
  while (active_count_ < target) power_up_one();
  if (params_.trace != nullptr && target != from) {
    obs::Event event("consolidate");
    event.str("config", cfg_.name)
        .str("benchmark", benchmark_name_)
        .i64("cycle", now_)
        .i64("from_cores", from)
        .i64("to_cores", target);
    params_.trace->record(event);
  }
}

void ClusterSim::emit_epoch_event() {
  if (params_.trace == nullptr) return;
  obs::Event event("epoch");
  event.str("config", cfg_.name)
      .str("benchmark", benchmark_name_)
      .i64("cycle", now_)
      .i64("active_cores", active_count_)
      .i64("instructions", static_cast<std::int64_t>(counts_.instructions))
      .f64("epi_pj", last_epoch_epi_);
  params_.trace->record(event);
}

void ClusterSim::collect_counters(obs::CounterSet& set) const {
  for (std::uint32_t pid = 0; pid < cores_.size(); ++pid) {
    const cpu::PhysicalCore& p = cores_[pid];
    const std::string prefix = "core" + std::to_string(pid);
    set.add(prefix + ".multiplier", static_cast<std::int64_t>(p.multiplier));
    set.add(prefix + ".powered_on", p.powered_on ? 1.0 : 0.0);
    set.add(prefix + ".busy_cycles", p.busy_cycles);
    set.add(prefix + ".idle_cycles", p.idle_cycles);
    set.add(prefix + ".resident_vcores",
            static_cast<std::uint64_t>(p.vcores.size()));
  }
  for (std::uint32_t vid = 0; vid < vcores_.size(); ++vid) {
    set.add("vcore" + std::to_string(vid) + ".instructions",
            vcores_[vid].instructions);
  }
  if (dl1_ctrl_) dl1_ctrl_->collect_counters(set, "dl1");
  if (private_l1_) private_l1_->collect_counters(set, "pl1");
  if (cfg_.hybrid_sram_ways > 0) {
    set.add("tech.l1_sram_ways",
            static_cast<std::uint64_t>(cfg_.hybrid_sram_ways));
    set.add("tech.l1_nvm_ways",
            static_cast<std::uint64_t>(cfg_.hybrid_nvm_ways));
    set.add("tech.l1_sram_reads", counts_.l1_sram_reads);
    set.add("tech.l1_sram_writes", counts_.l1_sram_writes);
  }
  if (injector_) {
    const fault::FaultStats& f = injector_->stats();
    set.add("fault.sram_lines_mapped", f.sram_lines_mapped);
    set.add("fault.sram_lines_correctable", f.sram_lines_correctable);
    set.add("fault.sram_lines_disabled", f.sram_lines_disabled);
    set.add("fault.ecc_corrections", f.ecc_corrections);
    set.add("fault.stt_write_faults", f.stt_write_faults);
    set.add("fault.stt_write_retries", f.stt_write_retries);
    set.add("fault.stt_lines_disabled", f.stt_lines_disabled);
    std::uint64_t disabled = 0, correctable = 0, usable = 0, total = 0;
    fault_capacity(&disabled, &correctable, &usable, &total);
    set.add("fault.l1_disabled_ways", disabled);
    set.add("fault.l1_correctable_ways", correctable);
    set.add("fault.l1_usable_bytes", usable);
    set.add("fault.l1_total_bytes", total);
  }
  const mem::BacksideStats& b = backside_.stats();
  set.add("backside.l2_reads", b.l2_reads);
  set.add("backside.l2_writes", b.l2_writes);
  set.add("backside.l3_reads", b.l3_reads);
  set.add("backside.l3_writes", b.l3_writes);
  set.add("backside.memory_reads", b.memory_reads);
  set.add("backside.memory_writes", b.memory_writes);
}

void ClusterSim::fault_capacity(std::uint64_t* disabled,
                                std::uint64_t* correctable,
                                std::uint64_t* usable,
                                std::uint64_t* total) const {
  *disabled = *correctable = *usable = *total = 0;
  const auto account = [&](const mem::CacheArray& array) {
    *disabled += array.disabled_ways();
    *correctable += array.correctable_ways();
    *usable += array.usable_capacity_bytes();
    *total += array.capacity_bytes();
  };
  if (l1i_) account(*l1i_);
  if (l1d_) account(*l1d_);
  if (private_l1_) {
    for (std::uint32_t c = 0; c < cfg_.cluster_cores; ++c) {
      account(private_l1_->l1i(c));
      account(private_l1_->l1d(c));
    }
  }
}

void ClusterSim::sync_power_integral() {
  const double period = static_cast<double>(cfg_.clocking.cache_period);
  counts_.core_on_ps += static_cast<double>(powered_cores_) *
                        static_cast<double>(now_ - power_integral_mark_) *
                        period;
  power_integral_mark_ = now_;
}

power::ActivityCounts ClusterSim::current_counts() {
  sync_power_integral();
  power::ActivityCounts c = counts_;
  for (const auto& core : cores_) {
    c.core_busy_cycles += core.busy_cycles;
    c.core_idle_cycles += core.idle_cycles;
  }
  const mem::BacksideStats& b = backside_.stats();
  c.l2_reads += b.l2_reads;
  c.l2_writes += b.l2_writes;
  c.l3_reads += b.l3_reads;
  c.l3_writes += b.l3_writes;
  c.dram_accesses += b.memory_reads + b.memory_writes;
  if (private_l1_) {
    c.l1_reads += private_l1_->l1_reads();
    c.l1_writes += private_l1_->l1_writes();
    const mem::CoherenceStats& coh = private_l1_->coherence_stats();
    c.coherence_messages += coh.upgrades * 2 + coh.invalidations_sent +
                            coh.interventions * 3 + coh.writebacks +
                            coh.directory_lookups;
  }
  return c;
}

SimResult ClusterSim::result() {
  SimResult r;
  r.config_name = cfg_.name;
  r.benchmark = benchmark_name_;
  r.cycles = now_;
  r.seconds =
      util::to_seconds(now_ * cfg_.clocking.cache_period);
  r.hit_cycle_limit = !done() && now_ >= params_.max_cycles;

  r.counts = current_counts();
  r.instructions = r.counts.instructions;
  r.energy = power::compute_energy(cfg_.power, r.counts,
                                   now_ * cfg_.clocking.cache_period);

  r.read_hit_latency = read_hit_latency_;
  r.dl1_read_hits = dl1_read_hits_;
  r.dl1_read_misses = dl1_read_misses_;
  if (dl1_ctrl_) {
    r.dl1_half_misses = dl1_ctrl_->stats().half_misses;
    r.dl1_store_rejections = dl1_ctrl_->stats().store_queue_rejections;
    r.dl1_arrivals = dl1_ctrl_->stats().arrivals_per_cycle;
    r.dl1_cycles = dl1_ctrl_->stats().total_cycles;
  }

  r.hybrid_sram_ways = cfg_.hybrid_sram_ways;
  r.hybrid_nvm_ways = cfg_.hybrid_nvm_ways;

  if (injector_) {
    r.faults_enabled = true;
    r.faults = injector_->stats();
    fault_capacity(&r.fault_l1_disabled_ways, &r.fault_l1_correctable_ways,
                   &r.fault_l1_usable_bytes, &r.fault_l1_total_bytes);
  }

  r.trace = trace_;
  if (active_stat_.count() > 0) {
    r.avg_active_cores = active_stat_.mean();
    r.min_active_cores = static_cast<std::uint32_t>(active_stat_.min());
    r.max_active_cores = static_cast<std::uint32_t>(active_stat_.max());
  } else {
    r.avg_active_cores = active_count_;
    r.min_active_cores = active_count_;
    r.max_active_cores = active_count_;
  }
  return r;
}

std::string ClusterSim::describe_state() const {
  std::ostringstream os;
  os << "t=" << now_ << " active=" << active_count_ << " finished="
     << finished_vcores_ << "/" << vcores_.size() << "\n";
  os << "barrier: completed=" << barrier_.completed << " arrived="
     << barrier_.arrived << " release=" << barrier_.last_release << "\n";
  for (std::uint32_t vid = 0; vid < vcores_.size(); ++vid) {
    const cpu::VirtualCore& v = vcores_[vid];
    const char* state = "?";
    switch (v.state) {
      case cpu::WaitState::kRunnable: state = "runnable"; break;
      case cpu::WaitState::kMemory: state = "memory"; break;
      case cpu::WaitState::kBarrier: state = "barrier"; break;
      case cpu::WaitState::kStoreBuffer: state = "store"; break;
      case cpu::WaitState::kFinished: state = "finished"; break;
    }
    os << "  v" << vid << " on p" << host_of_[vid] << " " << state
       << " mem_ready=" << v.mem_ready_cycle << " barrier_id="
       << v.barrier_id << " instr=" << v.instructions << "\n";
  }
  for (std::uint32_t pid = 0; pid < cores_.size(); ++pid) {
    const cpu::PhysicalCore& p = cores_[pid];
    os << "  p" << pid << (p.powered_on ? " on" : " OFF") << " next_tick="
       << core_next_tick_[pid] << " stalled_until=" << p.stalled_until
       << " vcores=" << p.vcores.size() << " run_index=" << p.run_index
       << (pending_reads_.empty() || !pending_reads_[pid].valid
               ? ""
               : " PENDING-READ")
       << "\n";
  }
  return os.str();
}

}  // namespace respin::core
