#include "serve/store.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace respin::serve {

namespace obsj = respin::obs::json;

namespace {

/// Per-line outcome of scanning a store log.
struct ScanStats {
  std::size_t skipped = 0;
  std::uint64_t max_gen = 0;
};

/// Streams every valid record line of `path` into `on_record` in file
/// order. A generation header line ({"respin_store":1,"gen":G}) only
/// feeds max_gen; anything malformed or unrecognized (torn tail from a
/// crash mid-append, stray text) is counted and skipped — a store must
/// never refuse to start because its last write was interrupted.
template <typename F>
ScanStats scan_log(std::istream& in, F&& on_record) {
  ScanStats stats;
  std::string line;
  std::uint64_t line_index = 0;
  while (in && std::getline(in, line)) {
    ++line_index;
    if (line.empty()) continue;
    try {
      const obsj::Value record = obsj::parse(line);
      if (const obsj::Value* header = record.find("respin_store")) {
        (void)header->as_u64();  // Version field; v1 is the only version.
        if (const obsj::Value* gen = record.find("gen")) {
          stats.max_gen = std::max(stats.max_gen, gen->as_u64());
        }
        continue;
      }
      const obsj::Value* key = record.find("key");
      const obsj::Value* result = record.find("result");
      if (key == nullptr || result == nullptr) {
        ++stats.skipped;
        continue;
      }
      StoreEntry entry;
      entry.key = key->as_string();
      entry.hash = core::key_hash_hex(entry.key);
      entry.result = core::result_from_json(*result);
      // Legacy stamp-less lines: generation 0, line index as sequence,
      // which reproduces the old later-line-wins load order.
      entry.gen = 0;
      entry.seq = line_index;
      if (const obsj::Value* gen = record.find("gen")) {
        entry.gen = gen->as_u64();
      }
      if (const obsj::Value* seq = record.find("seq")) {
        entry.seq = seq->as_u64();
      }
      stats.max_gen = std::max(stats.max_gen, entry.gen);
      on_record(std::move(entry));
    } catch (const std::exception&) {
      ++stats.skipped;
    }
  }
  return stats;
}

}  // namespace

bool entry_newer(const StoreEntry& a, const StoreEntry& b) {
  if (a.gen != b.gen) return a.gen > b.gen;
  if (a.seq != b.seq) return a.seq > b.seq;
  // Equal stamps: deterministic text tiebreak so merge outcomes never
  // depend on read order. Identical results compare equal (not newer).
  return core::result_to_json(a.result).dump() >
         core::result_to_json(b.result).dump();
}

std::vector<StoreEntry> load_store_entries(const std::string& path,
                                           std::size_t* skipped) {
  std::vector<StoreEntry> entries;
  std::unordered_map<std::string, std::size_t> index;
  std::ifstream in(path);
  const ScanStats stats = scan_log(in, [&](StoreEntry entry) {
    auto [it, inserted] = index.try_emplace(entry.key, entries.size());
    if (inserted) {
      entries.push_back(std::move(entry));
    } else if (entry_newer(entry, entries[it->second])) {
      entries[it->second] = std::move(entry);
    }
  });
  if (skipped != nullptr) *skipped = stats.skipped;
  return entries;
}

std::vector<ParetoPoint> pareto_frontier(std::vector<ParetoPoint> points) {
  std::sort(points.begin(), points.end(),
            [](const ParetoPoint& a, const ParetoPoint& b) {
              if (a.x != b.x) return a.x < b.x;
              if (a.y != b.y) return a.y < b.y;
              return a.key < b.key;
            });
  // Replicas of one key carry one result, so they sort next to each other.
  points.erase(std::unique(points.begin(), points.end(),
                           [](const ParetoPoint& a, const ParetoPoint& b) {
                             return a.key == b.key;
                           }),
               points.end());
  // O(n^2) dominance scan; store sizes are design-space sized (thousands),
  // not traffic sized.
  std::vector<ParetoPoint> frontier;
  for (const ParetoPoint& candidate : points) {
    bool dominated = false;
    for (const ParetoPoint& other : points) {
      if (other.x <= candidate.x && other.y <= candidate.y &&
          (other.x < candidate.x || other.y < candidate.y)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) frontier.push_back(candidate);
  }
  return frontier;
}

ResultStore::ResultStore(const std::string& path) : path_(path) {
  if (path_.empty()) return;
  {
    std::ifstream in(path_);
    const ScanStats stats = scan_log(in, [&](StoreEntry entry) {
      ++loaded_;
      absorb(std::move(entry));
    });
    skipped_lines_ = stats.skipped;
    generation_ = stats.max_gen + 1;
  }
  out_.open(path_, std::ios::app);
  if (!out_) {
    throw std::runtime_error("cannot open results store for append: " +
                             path_);
  }
  // Generation header: records this open's stamp so a future open (or a
  // merge reading this log) orders its writes after ours even if no
  // record was ever appended.
  obsj::Value header = obsj::Value::object();
  header.set("respin_store", obsj::Value::number(std::uint64_t{1}));
  header.set("gen", obsj::Value::number(generation_));
  out_ << header.dump() << '\n';
  out_.flush();
}

int ResultStore::absorb(StoreEntry entry) {
  auto [it, inserted] = index_.try_emplace(entry.key, entries_.size());
  if (inserted) {
    entries_.push_back(std::move(entry));
    return 1;
  }
  if (entry_newer(entry, entries_[it->second])) {
    entries_[it->second] = std::move(entry);
    return 0;
  }
  return -1;
}

void ResultStore::append_record(const StoreEntry& entry) {
  if (!out_.is_open()) return;
  obsj::Value record = obsj::Value::object();
  record.set("key", obsj::Value::str(entry.key));
  record.set("hash", obsj::Value::str(entry.hash));
  record.set("gen", obsj::Value::number(entry.gen));
  record.set("seq", obsj::Value::number(entry.seq));
  record.set("result", core::result_to_json(entry.result));
  out_ << record.dump() << '\n';
  out_.flush();  // The checkpoint contract: visible before put returns.
}

std::optional<core::SimResult> ResultStore::get(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  return entries_[it->second].result;
}

bool ResultStore::contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.find(key) != index_.end();
}

void ResultStore::put(const std::string& key, const core::SimResult& result) {
  StoreEntry entry;
  entry.key = key;
  entry.hash = core::key_hash_hex(key);
  entry.result = result;

  std::lock_guard<std::mutex> lock(mu_);
  entry.gen = generation_;
  entry.seq = next_seq_++;
  append_record(entry);
  absorb(std::move(entry));
}

StoreMergeStats ResultStore::merge_from(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read store log to merge: " + path);
  }
  StoreMergeStats stats;
  std::lock_guard<std::mutex> lock(mu_);
  const ScanStats scan = scan_log(in, [&](StoreEntry entry) {
    ++stats.scanned;
    // Accepted records keep their original stamps (append before absorb
    // moves the entry away): re-merging the same log finds equal stamps
    // and ignores every record, so merges are idempotent, and the
    // newest-wins total order makes them order-independent.
    const StoreEntry* existing = nullptr;
    const auto it = index_.find(entry.key);
    if (it != index_.end()) existing = &entries_[it->second];
    if (existing == nullptr) {
      append_record(entry);
      absorb(std::move(entry));
      ++stats.inserted;
    } else if (entry_newer(entry, *existing)) {
      append_record(entry);
      absorb(std::move(entry));
      ++stats.superseded;
    } else {
      ++stats.ignored;
    }
  });
  stats.skipped_lines = scan.skipped;
  // Writes must keep outranking everything we just absorbed.
  if (scan.max_gen >= generation_) {
    generation_ = scan.max_gen + 1;
    next_seq_ = 0;
  }
  return stats;
}

std::size_t ResultStore::compact() {
  std::lock_guard<std::mutex> lock(mu_);
  if (path_.empty()) return entries_.size();
  const std::string tmp = path_ + ".compact.tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cannot open compaction temp file: " + tmp);
    }
    obsj::Value header = obsj::Value::object();
    header.set("respin_store", obsj::Value::number(std::uint64_t{1}));
    header.set("gen", obsj::Value::number(generation_));
    out << header.dump() << '\n';
    for (const StoreEntry& entry : entries_) {
      obsj::Value record = obsj::Value::object();
      record.set("key", obsj::Value::str(entry.key));
      record.set("hash", obsj::Value::str(entry.hash));
      record.set("gen", obsj::Value::number(entry.gen));
      record.set("seq", obsj::Value::number(entry.seq));
      record.set("result", core::result_to_json(entry.result));
      out << record.dump() << '\n';
    }
    out.flush();
    if (!out) {
      throw std::runtime_error("compaction write failed: " + tmp);
    }
  }
  out_.close();
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    // Reopen the original log; the store must stay writable either way.
    out_.open(path_, std::ios::app);
    throw std::runtime_error("compaction rename failed for: " + path_);
  }
  out_.open(path_, std::ios::app);
  if (!out_) {
    throw std::runtime_error("cannot reopen results store after compaction: " +
                             path_);
  }
  return entries_.size();
}

std::vector<ResultStore::Brief> ResultStore::list() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Brief> out;
  out.reserve(entries_.size());
  for (const StoreEntry& e : entries_) {
    out.push_back(Brief{e.key, e.hash, e.result.config_name,
                        e.result.benchmark});
  }
  return out;
}

std::vector<ParetoPoint> ResultStore::pareto(std::string_view metric_x,
                                             std::string_view metric_y) const {
  std::vector<ParetoPoint> points;
  {
    std::lock_guard<std::mutex> lock(mu_);
    points.reserve(entries_.size());
    for (const StoreEntry& e : entries_) {
      ParetoPoint p;
      p.key = e.key;
      p.hash = e.hash;
      p.config = e.result.config_name;
      p.benchmark = e.result.benchmark;
      p.x = core::result_metric(e.result, metric_x);
      p.y = core::result_metric(e.result, metric_y);
      points.push_back(std::move(p));
    }
  }
  return pareto_frontier(std::move(points));
}

std::size_t ResultStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace respin::serve
