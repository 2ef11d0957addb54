// Architecture configurations (paper Table IV) and all derived parameters.
//
// `make_cluster_config` assembles everything a ClusterSim needs for one of
// the paper's eight named configurations at one of the three cache-size
// classes (Table I): per-core clock multipliers from the VARIUS variation
// map, cache latencies/energies from the nvsim array model, controller
// port occupancies, the MESI baseline's geometry, and the calibrated
// power model.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/consolidation.hpp"
#include "core/shared_cache_controller.hpp"
#include "cpu/core_model.hpp"
#include "mem/backside.hpp"
#include "mem/private_l1.hpp"
#include "nvsim/array_model.hpp"
#include "power/energy.hpp"
#include "tech/technology.hpp"

namespace respin::core {

/// The eight named configurations of paper Table IV, plus three
/// technology-exploration configurations enabled by the pluggable
/// backend registry (nvsim::TechnologyRegistry).
enum class ConfigId {
  kPrSramNt,      ///< Baseline: NT cores, private SRAM L1 @0.65 V.
  kHpSramCmp,     ///< Alt baseline: whole chip at nominal Vdd.
  kShSramNom,     ///< Shared SRAM L1 @1.0 V, NT cores.
  kShStt,         ///< Shared STT-RAM caches @1.0 V (the proposal).
  kShSttCc,       ///< + greedy dynamic core consolidation.
  kShSttCcOracle, ///< + oracle consolidation (upper bound).
  kPrSttCc,       ///< Consolidation with *private* STT-RAM caches.
  kShSttCcOs,     ///< Consolidation driven by the OS at 1 ms epochs.
  kShPcm,         ///< Shared PCM caches @1.0 V (slow asymmetric writes).
  kShEdram,       ///< Shared eDRAM caches @1.0 V (refresh tax).
  kShHybrid,      ///< Shared hybrid L1D: 4 SRAM + 12 STT-RAM ways.
};

/// Table I cache-size classes (chip-level L2/L3 capacity).
enum class CacheSize { kSmall, kMedium, kLarge };

/// Which consolidation mechanism runs, if any.
enum class GovernorKind { kNone, kGreedy, kOracle, kOs };

const char* to_string(ConfigId id);
const char* to_string(CacheSize size);
std::vector<ConfigId> all_config_ids();

/// Parses a Table IV configuration name ("SH-STT", case-sensitive);
/// throws std::logic_error on unknown names.
ConfigId parse_config_id(const std::string& name);

/// Parses a cache size class ("small"/"medium"/"large").
CacheSize parse_cache_size(const std::string& name);

/// Fully derived cluster configuration: everything ClusterSim consumes.
struct ClusterConfig {
  std::string name;
  ConfigId id = ConfigId::kPrSramNt;
  CacheSize size_class = CacheSize::kMedium;

  std::uint32_t cluster_cores = 16;
  std::uint32_t clusters_per_chip = 4;
  bool shared_l1 = true;
  nvsim::MemTech cache_tech = nvsim::MemTech::kSttRam;
  double cache_vdd = 1.0;
  double core_vdd = 0.4;
  GovernorKind governor = GovernorKind::kNone;

  /// Per-core clock multipliers (core period / cache period), from VARIUS.
  std::vector<int> multipliers;
  /// Per-core worst-case Vth (volts) from the same VARIUS die instance;
  /// the fault model shifts each region's SRAM Vccmin by its Vth offset.
  std::vector<double> core_vth;
  /// Die-mean Vth the offsets are relative to.
  double vth_mean = 0.30;
  tech::ClusterClocking clocking;

  // Shared-L1 organization (when shared_l1).
  std::uint64_t l1_shared_capacity = 256 * 1024;
  std::uint32_t l1_line_bytes = 32;
  std::uint32_t l1i_ways = 2;
  std::uint32_t l1d_ways = 4;
  /// Hybrid L1D way partition: ways [0, hybrid_sram_ways) of every L1D set
  /// are SRAM, the remaining hybrid_nvm_ways are `cache_tech`. Both are
  /// nonzero only for a genuinely mixed array (degenerate requests collapse
  /// to the equivalent pure configuration in make_cluster_config); 0/0 —
  /// the default — is a pure array. The shared L1I stays pure `cache_tech`
  /// (instruction fetches never write, so there is nothing to steer).
  std::uint32_t hybrid_sram_ways = 0;
  std::uint32_t hybrid_nvm_ways = 0;
  ControllerParams controller;

  // Private-L1 organization (when !shared_l1).
  mem::PrivateL1Params private_l1;
  /// Core cycles a private-L1 store occupies the write port.
  std::uint32_t private_store_cycles = 1;

  mem::BacksideParams backside;
  power::PowerModel power;
  cpu::CoreTimingParams core_timing;
  GovernorParams governor_params;

  /// Whether an L1 access crosses the low->high voltage boundary.
  bool l1_crosses_domains = true;

  // Analytic barrier costs, in shared-cache cycles (see DESIGN.md §5:
  // barrier spinning is charged analytically, not per spin-read).
  std::uint32_t barrier_arrival_cycles = 2;
  std::uint32_t barrier_release_cycles = 2;
  std::uint32_t barrier_post_release_cycles = 0;
  /// Coherence messages per barrier arrival (energy accounting).
  std::uint32_t barrier_arrival_messages = 0;

  /// OS-mode timing (SH-STT-CC-OS): 1 ms epochs and timeslices.
  std::int64_t os_epoch_cycles = 2'500'000;
  std::int64_t os_quantum_cycles = 2'500'000;

  std::uint64_t seed = 1;
};

/// Calibration constants for the core power model. The defaults reproduce
/// the relative energies of paper Figs. 6-9 given the Table III cache
/// anchors (see DESIGN.md §2 and EXPERIMENTS.md for the residuals).
struct CoreCalibration {
  double epi_nominal_pj = 30000.0;  ///< Core dynamic energy/instr @1.0 V.
  double leakage_nominal_w = 69.2;  ///< Core leakage @1.0 V.
  double dram_access_pj = 20000.0;
  double uncore_w = 0.5;            ///< Per cluster: PLL, clock spine, VCM.
  /// Speed margin of core critical paths relative to the 0.4 ns cache
  /// reference path (cores are logic-limited, caches array-limited).
  double core_path_speedup = 1.5;
};

/// Optional technology overrides applied on top of a named configuration's
/// traits (CLI: --shared-tech / --private-tech / --hybrid-ways). The
/// defaults leave the named configuration untouched.
struct TechOverride {
  /// Replaces the cache technology when the configuration shares its L1
  /// (applies to the whole cache-rail hierarchy: L1 + L2/L3 slices).
  std::optional<nvsim::MemTech> shared_tech;
  /// Replaces the cache technology when the L1s are private.
  std::optional<nvsim::MemTech> private_tech;
  /// Requested L1D way partition; 0/0 means "as named". S+0 and 0+N are
  /// accepted and collapse to the equivalent pure configuration.
  std::uint32_t hybrid_sram_ways = 0;
  std::uint32_t hybrid_nvm_ways = 0;

  /// True when any override departs from the named configuration.
  bool any() const {
    return shared_tech.has_value() || private_tech.has_value() ||
           hybrid_sram_ways != 0 || hybrid_nvm_ways != 0;
  }
};

/// Builds the derived configuration for (config, size class) with
/// `cluster_cores` cores per cluster on a 64-core chip. `seed` selects the
/// process-variation die instance.
ClusterConfig make_cluster_config(ConfigId id, CacheSize size,
                                  std::uint32_t cluster_cores = 16,
                                  std::uint64_t seed = 1,
                                  const CoreCalibration& cal = {},
                                  std::uint32_t first_core = 0,
                                  const TechOverride& tech = {});

/// Chip-level L2/L3 capacities per Table I.
std::uint64_t chip_l2_bytes(CacheSize size);
std::uint64_t chip_l3_bytes(CacheSize size);

}  // namespace respin::core
