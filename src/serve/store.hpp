// Durable results store for the serving daemon: an append-only JSONL file
// of (canonical key, SimResult) records with an in-memory index and
// design-space queries (fetch, list, Pareto frontier).
//
// Durability model: put() appends one self-contained JSON line and
// flushes before returning, so every completed simulation is a committed
// checkpoint — killing the daemon mid-sweep loses at most the cells still
// in flight, and a restarted daemon resumes from exactly the completed
// set (load() tolerates a torn trailing line from a crash mid-append).
// Because keys are canonical and results deterministic, replaying a line
// is idempotent: duplicate keys collapse to the newest record.
//
// Replication model (the sharded serving tier): every record carries a
// (generation, sequence) stamp. A store bumps its generation each time it
// is opened for append and stamps puts with a per-generation sequence, so
// "newest" is a total order independent of the order lines are read —
// merging two logs (merge_from, or the router's merge op fanned out to
// its workers) is idempotent and order-independent: for a duplicate key
// the record with the larger (gen, seq) wins, ties broken by serialized
// record text (identical for deterministic results). Legacy stamp-less
// lines load as generation 0 with their line index as sequence, which
// preserves the old later-line-wins semantics. compact() rewrites the log
// to one line per key (atomic rename), dropping superseded history.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/serde.hpp"

namespace respin::serve {

/// One stored run: the canonical request key, its result, and the
/// newest-wins stamp.
struct StoreEntry {
  std::string key;
  std::string hash;  ///< core::key_hash_hex(key), precomputed for queries.
  core::SimResult result;
  std::uint64_t gen = 0;  ///< Store generation that wrote the record.
  std::uint64_t seq = 0;  ///< Append sequence within that generation.
};

/// True when `a` supersedes `b` for the same key: larger (gen, seq),
/// ties broken by serialized result text so the outcome never depends on
/// which log was read first.
bool entry_newer(const StoreEntry& a, const StoreEntry& b);

/// Reads a JSONL store log without opening it for append (no generation
/// bump, no header write): newest-wins deduplicated entries in first-seen
/// key order. Malformed lines are skipped; `skipped` (when non-null)
/// receives their count. Used by read-only consumers (the router's cost
/// model seed).
std::vector<StoreEntry> load_store_entries(const std::string& path,
                                           std::size_t* skipped = nullptr);

/// What a merge did, summed over the merged log's records.
struct StoreMergeStats {
  std::size_t scanned = 0;     ///< Valid records read from the source.
  std::size_t inserted = 0;    ///< New keys added.
  std::size_t superseded = 0;  ///< Existing keys replaced by newer stamps.
  std::size_t ignored = 0;     ///< Records older than (or equal to) ours.
  std::size_t skipped_lines = 0;  ///< Malformed source lines.
};

/// One Pareto query answer point.
struct ParetoPoint {
  std::string key;
  std::string hash;
  std::string config;
  std::string benchmark;
  double x = 0.0;
  double y = 0.0;
};

/// The points no other point dominates, minimizing (x, y): a point
/// survives iff no other point is <= on both axes and < on one. Points
/// sharing a key (one result replicated across stores) count once. Returned
/// sorted by x, then y, then key.
std::vector<ParetoPoint> pareto_frontier(std::vector<ParetoPoint> points);

class ResultStore {
 public:
  /// Opens (creating if missing) the JSONL store at `path`, loads every
  /// valid record, bumps the store generation past everything seen, and
  /// appends a generation header; an empty path makes an ephemeral
  /// in-memory store. Throws std::runtime_error when the file cannot be
  /// opened for append.
  explicit ResultStore(const std::string& path);

  /// Copy of the result stored for `key` (copied under the lock — put()
  /// from worker threads may run concurrently), or nullopt.
  std::optional<core::SimResult> get(const std::string& key) const;

  /// True when `key` has a stored result (sweep resume check).
  bool contains(const std::string& key) const;

  /// Records (key -> result), appending to the backing file and flushing
  /// before returning (the checkpoint contract). Re-putting a key replaces
  /// the in-memory entry and appends a superseding line.
  void put(const std::string& key, const core::SimResult& result);

  /// Merges another JSONL store log into this one: for each record, keep
  /// whichever of (theirs, ours) has the newer (gen, seq) stamp. Accepted
  /// records are appended with their *original* stamps, so re-merging the
  /// same log is a no-op and merge order does not change the outcome.
  /// Throws std::runtime_error when `path` cannot be read.
  StoreMergeStats merge_from(const std::string& path);

  /// Rewrites the backing file to one line per key (newest records only,
  /// atomic rename), dropping superseded history and stale headers.
  /// Returns the number of records kept. No-op (returns size()) for an
  /// ephemeral store.
  std::size_t compact();

  /// Brief listing of every stored run, in insertion order.
  struct Brief {
    std::string key;
    std::string hash;
    std::string config;
    std::string benchmark;
  };
  std::vector<Brief> list() const;

  /// pareto_frontier over every stored result, minimizing (metric_x,
  /// metric_y) (core::result_metric names). Throws std::logic_error on
  /// unknown metric names.
  std::vector<ParetoPoint> pareto(std::string_view metric_x,
                                  std::string_view metric_y) const;

  std::size_t size() const;
  /// Records recovered from disk at construction.
  std::size_t loaded() const { return loaded_; }
  /// Malformed lines skipped at load (a torn tail counts here).
  std::size_t skipped_lines() const { return skipped_lines_; }
  /// This store's write generation (larger than any loaded record's).
  std::uint64_t generation() const { return generation_; }
  const std::string& path() const { return path_; }

 private:
  /// Inserts or newest-wins-replaces `entry` in the in-memory index.
  /// Returns +1 inserted, 0 replaced, -1 ignored (ours is newer).
  int absorb(StoreEntry entry);
  void append_record(const StoreEntry& entry);

  mutable std::mutex mu_;
  std::string path_;
  std::ofstream out_;
  /// key -> index into entries_ (entries are never erased; a replaced key
  /// updates its entry in place).
  std::unordered_map<std::string, std::size_t> index_;
  std::vector<StoreEntry> entries_;
  std::uint64_t generation_ = 1;
  std::uint64_t next_seq_ = 0;
  std::size_t loaded_ = 0;
  std::size_t skipped_lines_ = 0;
};

}  // namespace respin::serve
