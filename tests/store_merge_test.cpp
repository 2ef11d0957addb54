// Property tests for results-store merge semantics: interleaving two
// JSONL logs — duplicate keys, torn tails, conflicting generations,
// legacy stamp-less lines — must produce a newest-wins result that is
// idempotent (re-merging changes nothing) and order-independent (A then
// B equals B then A). These are the invariants the sharded serving
// tier's replication leans on (docs/serving.md).
#include "serve/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/serde.hpp"
#include "obs/json.hpp"
#include "scratch_path.hpp"

namespace respin::serve {
namespace {

/// A distinguishable fabricated result: `cycles` is the payload the
/// assertions compare.
core::SimResult make_result(const std::string& key, std::uint64_t cycles) {
  core::SimResult result;
  result.config_name = "SH-STT";
  result.benchmark = key;
  result.cycles = cycles;
  return result;
}

std::uint64_t stored_cycles(const ResultStore& store, const std::string& key) {
  const auto result = store.get(key);
  return result.has_value() ? result->cycles : 0;
}

/// Every (key, cycles) pair in the store, canonicalized for comparison.
std::vector<std::pair<std::string, std::uint64_t>> snapshot(
    const ResultStore& store) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const ResultStore::Brief& brief : store.list()) {
    out.emplace_back(brief.key, stored_cycles(store, brief.key));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class StoreMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_a_ = test::scratch_path("a.jsonl");
    path_b_ = test::scratch_path("b.jsonl");
    path_c_ = test::scratch_path("c.jsonl");
    path_d_ = test::scratch_path("d.jsonl");
    for (const std::string& p : {path_a_, path_b_, path_c_, path_d_}) {
      std::remove(p.c_str());
    }
  }
  void TearDown() override {
    for (const std::string& p : {path_a_, path_b_, path_c_, path_d_}) {
      std::remove(p.c_str());
    }
  }

  std::string path_a_, path_b_, path_c_, path_d_;
};

TEST_F(StoreMergeTest, MergeIsIdempotent) {
  {
    ResultStore a(path_a_);
    a.put("k1", make_result("k1", 11));
    a.put("k2", make_result("k2", 22));
  }
  ResultStore c(path_c_);
  const StoreMergeStats first = c.merge_from(path_a_);
  EXPECT_EQ(first.scanned, 2u);
  EXPECT_EQ(first.inserted, 2u);
  EXPECT_EQ(first.ignored, 0u);

  // Replaying the same log changes nothing: the appended records kept
  // their original stamps, so every record now compares equal-or-older.
  const auto before = snapshot(c);
  const StoreMergeStats again = c.merge_from(path_a_);
  EXPECT_EQ(again.scanned, 2u);
  EXPECT_EQ(again.inserted, 0u);
  EXPECT_EQ(again.superseded, 0u);
  EXPECT_EQ(again.ignored, 2u);
  EXPECT_EQ(snapshot(c), before);
}

TEST_F(StoreMergeTest, MergeIsOrderIndependent) {
  {
    ResultStore a(path_a_);
    a.put("only_a", make_result("only_a", 1));
    a.put("shared", make_result("shared", 100));
  }
  {
    // Bump b's generation past a's by opening it twice: its `shared`
    // record carries a newer stamp and must win in either merge order.
    { ResultStore bump(path_b_); }
    ResultStore b(path_b_);
    b.put("only_b", make_result("only_b", 2));
    b.put("shared", make_result("shared", 200));
  }
  ResultStore ab(path_c_);
  ab.merge_from(path_a_);
  ab.merge_from(path_b_);
  ResultStore ba(path_d_);
  ba.merge_from(path_b_);
  ba.merge_from(path_a_);

  EXPECT_EQ(snapshot(ab), snapshot(ba));
  EXPECT_EQ(ab.size(), 3u);
  EXPECT_EQ(stored_cycles(ab, "shared"), 200u);  // Newer generation won.
  EXPECT_EQ(stored_cycles(ba, "shared"), 200u);
}

TEST_F(StoreMergeTest, ConflictingGenerationsNewestWins) {
  {
    ResultStore a(path_a_);
    a.put("k", make_result("k", 1));  // gen 1.
  }
  {
    ResultStore a(path_a_);            // Reopen: gen 2.
    a.put("k", make_result("k", 2));  // Supersedes within the same log.
  }
  ResultStore c(path_c_);
  const StoreMergeStats stats = c.merge_from(path_a_);
  // The log holds both spellings of "k" but the scan deduplicates to the
  // newest before our newest-wins compare sees it, or delivers both and
  // the second supersedes — either way gen 2 lands.
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(stored_cycles(c, "k"), 2u);
  EXPECT_GE(stats.inserted, 1u);

  // Merging into a store that already holds a newer generation for the
  // key leaves it untouched.
  ResultStore d(path_d_);
  d.merge_from(path_a_);         // "k" @ gen 2.
  { ResultStore bump1(path_b_); }  // Header only: gen 1.
  { ResultStore bump2(path_b_); }  // Header only: gen 2.
  {
    ResultStore newer(path_b_);  // gen 3 — strictly newer than a's gen 2.
    newer.put("k", make_result("k", 3));
  }
  d.merge_from(path_b_);
  EXPECT_EQ(stored_cycles(d, "k"), 3u);
  const StoreMergeStats replay = d.merge_from(path_a_);  // Older again.
  EXPECT_EQ(replay.superseded, 0u);
  EXPECT_EQ(stored_cycles(d, "k"), 3u);
}

TEST_F(StoreMergeTest, TornTailAndGarbageLinesAreSkipped) {
  {
    ResultStore a(path_a_);
    a.put("good", make_result("good", 7));
  }
  {
    std::ofstream out(path_a_, std::ios::app);
    out << "not json at all\n";
    out << "{\"key\":\"torn";  // Crash mid-append: no newline, no close.
  }
  ResultStore c(path_c_);
  const StoreMergeStats stats = c.merge_from(path_a_);
  EXPECT_EQ(stats.scanned, 1u);
  EXPECT_EQ(stats.inserted, 1u);
  EXPECT_EQ(stats.skipped_lines, 2u);
  EXPECT_EQ(stored_cycles(c, "good"), 7u);
}

TEST_F(StoreMergeTest, LegacyStampLessLinesLoadAndLose) {
  // A pre-replication log: no header, no gen/seq stamps. Later lines win
  // on load (line index becomes the sequence)...
  {
    std::ofstream out(path_a_);
    for (const std::uint64_t cycles : {10u, 20u}) {
      obs::json::Value record = obs::json::Value::object();
      record.set("key", obs::json::Value::str("legacy"));
      record.set("hash", obs::json::Value::str(core::key_hash_hex("legacy")));
      record.set("result",
                 core::result_to_json(make_result("legacy", cycles)));
      out << record.dump() << '\n';
    }
  }
  {
    ResultStore legacy(path_a_);
    EXPECT_EQ(legacy.loaded(), 2u);
    EXPECT_EQ(legacy.size(), 1u);
    EXPECT_EQ(stored_cycles(legacy, "legacy"), 20u);
    EXPECT_EQ(legacy.generation(), 1u);  // Stamp-less lines are gen 0.
  }
  // ...and any stamped record supersedes a legacy one.
  {
    ResultStore b(path_b_);
    b.put("legacy", make_result("legacy", 30));
  }
  ResultStore c(path_c_);
  c.merge_from(path_a_);
  EXPECT_EQ(stored_cycles(c, "legacy"), 20u);
  const StoreMergeStats stats = c.merge_from(path_b_);
  EXPECT_EQ(stats.superseded, 1u);
  EXPECT_EQ(stored_cycles(c, "legacy"), 30u);
}

TEST_F(StoreMergeTest, CompactDropsHistoryAndPreservesEntries) {
  {
    ResultStore a(path_a_);
    a.put("k1", make_result("k1", 1));
    a.put("k1", make_result("k1", 2));  // Superseding line.
    a.put("k2", make_result("k2", 3));
    const auto before = snapshot(a);
    EXPECT_EQ(a.compact(), 2u);
    EXPECT_EQ(snapshot(a), before);
    // The compacted store keeps accepting puts (stream reopened).
    a.put("k3", make_result("k3", 4));
  }
  // One header + one line per key survives on disk.
  std::size_t record_lines = 0, header_lines = 0;
  std::ifstream in(path_a_);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("respin_store") != std::string::npos) {
      ++header_lines;
    } else if (line.find("\"key\"") != std::string::npos) {
      ++record_lines;
    }
  }
  EXPECT_EQ(header_lines, 1u);
  EXPECT_EQ(record_lines, 3u);

  // A reload sees exactly the compacted state.
  ResultStore reloaded(path_a_);
  EXPECT_EQ(reloaded.size(), 3u);
  EXPECT_EQ(stored_cycles(reloaded, "k1"), 2u);
  EXPECT_EQ(stored_cycles(reloaded, "k3"), 4u);
}

TEST_F(StoreMergeTest, EntryNewerIsAStrictOrder) {
  StoreEntry old_entry;
  old_entry.gen = 1;
  old_entry.seq = 5;
  old_entry.result = make_result("k", 1);
  StoreEntry new_entry = old_entry;
  new_entry.gen = 2;
  EXPECT_TRUE(entry_newer(new_entry, old_entry));
  EXPECT_FALSE(entry_newer(old_entry, new_entry));

  // Same generation: sequence decides.
  new_entry.gen = 1;
  new_entry.seq = 6;
  EXPECT_TRUE(entry_newer(new_entry, old_entry));

  // Identical stamps and identical results: neither is newer (a replayed
  // record is a no-op, not a flip-flop).
  new_entry.seq = 5;
  EXPECT_FALSE(entry_newer(new_entry, old_entry));
  EXPECT_FALSE(entry_newer(old_entry, new_entry));

  // Identical stamps, different payloads: the text tiebreak picks the
  // same winner regardless of argument order.
  new_entry.result = make_result("k", 2);
  EXPECT_NE(entry_newer(new_entry, old_entry),
            entry_newer(old_entry, new_entry));
}

TEST_F(StoreMergeTest, LoadStoreEntriesReadsWithoutGenerationBump) {
  {
    ResultStore a(path_a_);
    a.put("k1", make_result("k1", 1));
  }
  std::ifstream before(path_a_);
  const std::size_t lines_before = std::count(
      std::istreambuf_iterator<char>(before), std::istreambuf_iterator<char>(),
      '\n');
  std::size_t skipped = 0;
  const std::vector<StoreEntry> entries = load_store_entries(path_a_, &skipped);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, "k1");
  EXPECT_EQ(skipped, 0u);
  // Read-only: no header appended, file untouched.
  std::ifstream after(path_a_);
  EXPECT_EQ(static_cast<std::size_t>(std::count(
                std::istreambuf_iterator<char>(after),
                std::istreambuf_iterator<char>(), '\n')),
            lines_before);
}

}  // namespace
}  // namespace respin::serve
