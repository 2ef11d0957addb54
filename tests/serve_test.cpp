// Tests for the serving subsystem: protocol handling, the acceptance
// criteria of the serve layer — served results bit-identical to direct
// run_experiment calls, repeats answered from the cache without
// re-simulation, sweeps resuming from the checkpointed store — plus
// admission control, single-flight dedupe, deadlines, Pareto queries, and
// store durability across daemon restarts.
#include "serve/server.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/serde.hpp"
#include "obs/json.hpp"
#include "scratch_path.hpp"
#include "serve/cache.hpp"
#include "serve/net.hpp"
#include "serve/store.hpp"
#include "sim_result_eq.hpp"

namespace respin::serve {
namespace {

namespace obsj = obs::json;

ServerConfig ephemeral_config() {
  ServerConfig config;
  config.store_path.clear();
  return config;
}

/// Issues one request line and parses the response.
obsj::Value ask(Server& server, const std::string& line) {
  return obsj::parse(server.handle_line(line));
}

double counter(const Server& server, const std::string& name) {
  const obs::CounterSet set = server.counters();
  const double* value = set.find(name);
  EXPECT_NE(value, nullptr) << name;
  return value != nullptr ? *value : -1.0;
}

/// A fast run request: the golden grid's 0.05 scale.
std::string run_line(const std::string& config, const std::string& benchmark,
                     const std::string& extra = "") {
  return "{\"op\":\"run\",\"config\":\"" + config + "\",\"benchmark\":\"" +
         benchmark + "\",\"scale\":0.05" + extra + "}";
}

TEST(ServeProtocol, PingVersionAndErrors) {
  Server server(ephemeral_config());
  EXPECT_TRUE(ask(server, "{\"op\":\"ping\"}").find("ok")->as_bool());

  const obsj::Value version = ask(server, "{\"op\":\"version\",\"id\":42}");
  EXPECT_TRUE(version.find("ok")->as_bool());
  EXPECT_EQ(version.find("id")->as_u64(), 42u);  // Correlation id echoed.

  const obsj::Value bad = ask(server, "this is not json");
  EXPECT_FALSE(bad.find("ok")->as_bool());
  EXPECT_EQ(bad.find("error")->find("kind")->as_string(), "parse_error");

  const obsj::Value unknown = ask(server, "{\"op\":\"frobnicate\"}");
  EXPECT_EQ(unknown.find("error")->find("kind")->as_string(), "bad_request");

  const obsj::Value bad_bench =
      ask(server, run_line("SH-STT", "not_a_benchmark"));
  EXPECT_EQ(bad_bench.find("error")->find("kind")->as_string(),
            "bad_request");
  EXPECT_EQ(counter(server, "serve.protocol_errors"), 3.0);
}

// Acceptance: a served result is bit-identical to a direct
// run_experiment call for >= 4 Table IV configurations.
TEST(ServeEquivalence, ServedResultsMatchDirectRuns) {
  Server server(ephemeral_config());
  core::RunOptions options;
  options.workload_scale = 0.05;
  const std::vector<core::ConfigId> configs = {
      core::ConfigId::kPrSramNt, core::ConfigId::kShStt,
      core::ConfigId::kShSttCc, core::ConfigId::kShHybrid};
  for (const core::ConfigId config : configs) {
    const std::string name = core::to_string(config);
    const obsj::Value response = ask(server, run_line(name, "ocean"));
    ASSERT_TRUE(response.find("ok")->as_bool()) << name;
    const core::SimResult served =
        core::result_from_json(*response.find("result"));
    const core::SimResult direct =
        core::run_experiment(config, "ocean", options);
    core::expect_same_result(direct, served);
  }
  EXPECT_EQ(counter(server, "serve.sims_run"), 4.0);
}

// Acceptance: a repeated identical request is answered from the cache
// without re-simulating.
TEST(ServeCache, RepeatIsACacheHitWithoutResimulation) {
  Server server(ephemeral_config());
  const obsj::Value first = ask(server, run_line("SH-STT", "radix"));
  ASSERT_TRUE(first.find("ok")->as_bool());
  EXPECT_EQ(first.find("source")->as_string(), "sim");

  const obsj::Value second = ask(server, run_line("SH-STT", "radix"));
  ASSERT_TRUE(second.find("ok")->as_bool());
  EXPECT_EQ(second.find("source")->as_string(), "cache");
  EXPECT_TRUE(second.find("cached")->as_bool());
  EXPECT_EQ(counter(server, "serve.cache_hits"), 1.0);
  EXPECT_EQ(counter(server, "serve.sims_run"), 1.0);

  // The two responses carry the same key and byte-identical results.
  EXPECT_EQ(first.find("key")->as_string(), second.find("key")->as_string());
  EXPECT_EQ(first.find("result")->dump(), second.find("result")->dump());

  // cycle_skip is excluded from the key (bit-identical contract), so the
  // no-skip spelling of the same request is also a hit.
  const obsj::Value noskip =
      ask(server, run_line("SH-STT", "radix", ",\"cycle_skip\":false"));
  EXPECT_EQ(noskip.find("source")->as_string(), "cache");
}

TEST(ServeSingleFlight, ConcurrentIdenticalRequestsRunOnce) {
  Server server(ephemeral_config());
  const std::string line = run_line("SH-STT", "ocean");
  std::vector<std::thread> clients;
  std::vector<std::string> responses(6);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    clients.emplace_back(
        [&, i] { responses[i] = server.handle_line(line); });
  }
  for (std::thread& t : clients) t.join();
  for (const std::string& response : responses) {
    const obsj::Value v = obsj::parse(response);
    ASSERT_TRUE(v.find("ok")->as_bool());
    EXPECT_EQ(v.find("result")->dump(),
              obsj::parse(responses.front()).find("result")->dump());
  }
  // However the clients raced, exactly one simulation ran.
  EXPECT_EQ(counter(server, "serve.sims_run"), 1.0);
}

TEST(ServeAdmission, OverloadAndDrainingRejectsAreTyped) {
  ServerConfig config = ephemeral_config();
  config.queue_depth = 0;  // Admit nothing: deterministic overload.
  Server overloaded(config);
  const obsj::Value reject = ask(overloaded, run_line("SH-STT", "ocean"));
  EXPECT_FALSE(reject.find("ok")->as_bool());
  EXPECT_EQ(reject.find("error")->find("kind")->as_string(), "overloaded");
  EXPECT_EQ(counter(overloaded, "serve.rejected_overload"), 1.0);

  Server draining(ephemeral_config());
  const obsj::Value shutdown = ask(draining, "{\"op\":\"shutdown\"}");
  EXPECT_TRUE(shutdown.find("ok")->as_bool());
  const obsj::Value drained = ask(draining, run_line("SH-STT", "ocean"));
  EXPECT_EQ(drained.find("error")->find("kind")->as_string(), "draining");
  const obsj::Value sweep_reject =
      ask(draining, "{\"op\":\"sweep\",\"scale\":0.05}");
  EXPECT_EQ(sweep_reject.find("error")->find("kind")->as_string(),
            "draining");
  EXPECT_EQ(counter(draining, "serve.rejected_draining"), 2.0);
}

TEST(ServeDeadline, TimedOutRequestStillCompletesAndCaches) {
  Server server(ephemeral_config());
  // Occupy the scheduler with a slower run so the probe request below
  // cannot finish within its deadline.
  std::thread busy([&] {
    server.handle_line(
        "{\"op\":\"run\",\"config\":\"SH-STT-CC\",\"benchmark\":\"ocean\","
        "\"scale\":0.3}");
  });
  const obsj::Value timed_out = ask(
      server, run_line("SH-STT", "barnes", ",\"deadline_ms\":1"));
  EXPECT_FALSE(timed_out.find("ok")->as_bool());
  EXPECT_EQ(timed_out.find("error")->find("kind")->as_string(), "timeout");
  const std::string key = timed_out.find("key")->as_string();
  busy.join();
  server.drain();  // The abandoned simulation still runs to completion...
  EXPECT_EQ(counter(server, "serve.deadline_timeouts"), 1.0);
  // ...and a retry of the identical request is a cache/store answer.
  const obsj::Value retry = ask(server, run_line("SH-STT", "barnes"));
  ASSERT_TRUE(retry.find("ok")->as_bool());
  EXPECT_EQ(retry.find("key")->as_string(), key);
  EXPECT_TRUE(retry.find("cached")->as_bool());
}

// Acceptance: killing a sweep mid-run and restarting resumes from the
// checkpointed store, completing only the missing cells.
TEST(ServeSweep, ResumesFromCheckpointedStoreAfterRestart) {
  const std::string store_path = test::scratch_path("sweep_store.jsonl");
  std::remove(store_path.c_str());
  const std::string sweep_line =
      "{\"op\":\"sweep\",\"configs\":[\"SH-STT\",\"PR-SRAM-NT\"],"
      "\"benchmarks\":[\"ocean\",\"radix\"],\"scale\":0.05}";
  {
    // First daemon: completes only half the matrix (as if killed before
    // the rest ran) — each completed cell is already checkpointed.
    ServerConfig config;
    config.store_path = store_path;
    Server server(config);
    const obsj::Value partial = ask(
        server,
        "{\"op\":\"sweep\",\"configs\":[\"SH-STT\"],"
        "\"benchmarks\":[\"ocean\",\"radix\"],\"scale\":0.05}");
    ASSERT_TRUE(partial.find("ok")->as_bool());
    EXPECT_EQ(partial.find("ran")->as_u64(), 2u);
    EXPECT_EQ(partial.find("resumed")->as_u64(), 0u);
  }
  // Simulate a crash artifact: a torn half-written trailing line.
  {
    std::ofstream out(store_path, std::ios::app);
    out << "{\"key\":\"torn";
  }
  {
    // Restarted daemon, full matrix: only the two missing cells run.
    ServerConfig config;
    config.store_path = store_path;
    Server server(config);
    EXPECT_EQ(server.store().loaded(), 2u);
    EXPECT_EQ(server.store().skipped_lines(), 1u);
    const obsj::Value resumed = ask(server, sweep_line);
    ASSERT_TRUE(resumed.find("ok")->as_bool());
    EXPECT_EQ(resumed.find("cells")->as_u64(), 4u);
    EXPECT_EQ(resumed.find("resumed")->as_u64(), 2u);
    EXPECT_EQ(resumed.find("ran")->as_u64(), 2u);
    EXPECT_EQ(resumed.find("failed")->as_u64(), 0u);
    EXPECT_EQ(counter(server, "serve.sweep_cells_resumed"), 2.0);

    // Rerunning the whole sweep is now a pure resume: zero simulations.
    const obsj::Value replay = ask(server, sweep_line);
    EXPECT_EQ(replay.find("resumed")->as_u64(), 4u);
    EXPECT_EQ(replay.find("ran")->as_u64(), 0u);

    // And the sweep's cells answer `run` requests straight from the store
    // with results bit-identical to a direct simulation.
    const obsj::Value run = ask(server, run_line("PR-SRAM-NT", "radix"));
    ASSERT_TRUE(run.find("ok")->as_bool());
    EXPECT_TRUE(run.find("cached")->as_bool());
    core::RunOptions options;
    options.workload_scale = 0.05;
    core::expect_same_result(
        core::run_experiment(core::ConfigId::kPrSramNt, "radix", options),
        core::result_from_json(*run.find("result")));
  }
  std::remove(store_path.c_str());
}

TEST(ServeQueries, GetListAndStats) {
  Server server(ephemeral_config());
  const obsj::Value miss =
      ask(server, "{\"op\":\"get\",\"key\":\"no-such-key\"}");
  EXPECT_EQ(miss.find("error")->find("kind")->as_string(), "not_found");

  const obsj::Value ran = ask(server, run_line("SH-STT", "ocean"));
  ASSERT_TRUE(ran.find("ok")->as_bool());
  // get by explicit key, and by respelling the request fields.
  const std::string key = ran.find("key")->as_string();
  obsj::Value by_key = obsj::Value::object();
  by_key.set("op", obsj::Value::str("get"));
  by_key.set("key", obsj::Value::str(key));
  const obsj::Value got = ask(server, by_key.dump());
  ASSERT_TRUE(got.find("ok")->as_bool());
  EXPECT_EQ(got.find("result")->dump(), ran.find("result")->dump());
  const obsj::Value by_spec = ask(
      server, "{\"op\":\"get\",\"config\":\"SH-STT\",\"benchmark\":"
              "\"ocean\",\"scale\":0.05}");
  ASSERT_TRUE(by_spec.find("ok")->as_bool());
  EXPECT_EQ(by_spec.find("key")->as_string(), key);

  const obsj::Value list = ask(server, "{\"op\":\"list\"}");
  EXPECT_EQ(list.find("count")->as_u64(), 1u);
  EXPECT_EQ(list.find("runs")->as_array()[0].find("benchmark")->as_string(),
            "ocean");

  const obsj::Value stats = ask(server, "{\"op\":\"stats\"}");
  EXPECT_EQ(stats.find("counters")->find("serve.sims_run")->as_double(),
            1.0);
}

TEST(ServePareto, FrontierDropsDominatedPoints) {
  // Fabricated results with known metric positions: (1,3) and (2,1) are
  // the frontier; (2,3) and (3,2) are dominated.
  ResultStore store("");
  const auto put = [&](const std::string& name, double energy,
                       double cycles) {
    core::SimResult result;
    result.config_name = name;
    result.benchmark = "synthetic";
    result.cycles = static_cast<std::uint64_t>(cycles);
    result.energy.cache_dynamic = energy;
    store.put(name, result);
  };
  put("a", 1.0, 3.0);
  put("b", 2.0, 1.0);
  put("c", 2.0, 3.0);
  put("d", 3.0, 2.0);
  const std::vector<ParetoPoint> frontier =
      store.pareto("energy_pj", "cycles");
  ASSERT_EQ(frontier.size(), 2u);
  EXPECT_EQ(frontier[0].key, "a");  // Sorted by x.
  EXPECT_EQ(frontier[1].key, "b");
  EXPECT_THROW(store.pareto("nope", "cycles"), std::logic_error);
}

TEST(ServeStdio, DrivesServerOverStreams) {
  Server server(ephemeral_config());
  std::istringstream in(
      "{\"op\":\"ping\"}\n"
      "\n"
      "{\"op\":\"stats\"}\n"
      "{\"op\":\"shutdown\"}\n"
      "{\"op\":\"never-reached\"}\n");
  std::ostringstream out;
  const std::size_t handled = serve_stdio(server, in, out);
  EXPECT_EQ(handled, 3u);  // Blank skipped; loop ends after shutdown.
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_TRUE(obsj::parse(line).find("ok")->as_bool());
  EXPECT_TRUE(server.draining());
}

/// A log sink that serve_tcp may write from its own thread while the test
/// waits for the "listening on port N" banner.
class BannerLog : public std::streambuf {
 public:
  /// The bound port, once the banner is complete; 0 after a 10 s timeout.
  std::uint16_t wait_for_port() {
    static const std::string kBanner = "listening on port ";
    std::unique_lock<std::mutex> lock(mu_);
    std::size_t at = std::string::npos;
    const bool complete = cv_.wait_for(lock, std::chrono::seconds(10), [&] {
      at = text_.find(kBanner);
      return at != std::string::npos &&
             text_.find('\n', at) != std::string::npos;
    });
    if (!complete) return 0;
    return static_cast<std::uint16_t>(
        std::stoul(text_.substr(at + kBanner.size())));
  }

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) {
      const char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
    }
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      text_.append(s, static_cast<std::size_t>(n));
    }
    cv_.notify_all();
    return n;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::string text_;
};

/// Reads one newline-terminated line from `fd` into `line`, keeping any
/// bytes past the newline in `buffer`.
bool recv_line(int fd, std::string& buffer, std::string& line) {
  char chunk[4096];
  for (;;) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      return true;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

/// Connects to the loopback `port` and times `pairs` rounds of two pings
/// written in one send, each round ending when both replies are in.
/// Returns fewer times than `pairs` if the connection fails.
std::vector<double> pipelined_ping_pairs_ms(std::uint16_t port, int pairs) {
  std::vector<double> pair_ms;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return pair_ms;
  // The client side sends at once, so only the daemon's writes can stall.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    const std::string pair = "{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n";
    std::string buffer;
    std::string line;
    for (int i = 0; i < pairs; ++i) {
      const auto start = std::chrono::steady_clock::now();
      if (::send(fd, pair.data(), pair.size(), 0) !=
          static_cast<ssize_t>(pair.size())) {
        break;
      }
      if (!recv_line(fd, buffer, line) || !recv_line(fd, buffer, line)) break;
      pair_ms.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count());
    }
  }
  ::close(fd);
  return pair_ms;
}

// Two requests written back to back on one connection get two responses
// written back to back. Unless the daemon's sockets disable Nagle, the
// second response waits for the client's delayed ACK (about 40 ms on
// Linux), so a pipelined pair of pings would take ~40 ms instead of well
// under one.
TEST(ServeTcp, PipelinedPairsDoNotWaitForDelayedAck) {
  Server server(ephemeral_config());
  BannerLog log_buf;
  std::ostream log(&log_buf);
  std::thread daemon([&] { serve_tcp(server, 0, log, "test"); });
  const std::uint16_t port = log_buf.wait_for_port();
  std::vector<double> pair_ms =
      port != 0 ? pipelined_ping_pairs_ms(port, 20) : std::vector<double>{};
  server.handle_line("{\"op\":\"shutdown\"}");
  daemon.join();

  ASSERT_NE(port, 0) << "serve_tcp never reported its port";
  ASSERT_EQ(pair_ms.size(), 20u) << "the connection failed";
  std::sort(pair_ms.begin(), pair_ms.end());
  EXPECT_LT(pair_ms[pair_ms.size() / 2], 20.0)
      << "median pipelined pair time; slowest " << pair_ms.back() << " ms";
}

// A client that streams megabytes without a newline must not grow the
// daemon's line buffer without bound: past 1 MiB it gets a typed error
// and the connection closes, and the daemon keeps serving others.
TEST(ServeTcp, OverlongLineIsRejected) {
  Server server(ephemeral_config());
  BannerLog log_buf;
  std::ostream log(&log_buf);
  std::thread daemon([&] { serve_tcp(server, 0, log, "test"); });
  const std::uint16_t port = log_buf.wait_for_port();

  const auto connect_to_daemon = [port] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    // A daemon that never answers fails the test instead of hanging it.
    const timeval timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  };
  std::string reply;
  bool closed_after_reply = false;
  std::string ping_reply;
  if (port != 0) {
    const int fd = connect_to_daemon();
    if (fd >= 0) {
      const std::string block(64 * 1024, 'x');
      for (std::size_t sent = 0; sent < (std::size_t{8} << 20);
           sent += block.size()) {
        // The daemon may close its end early; a failed send just stops.
        if (::send(fd, block.data(), block.size(), MSG_NOSIGNAL) <= 0) break;
      }
      std::string buffer;
      if (recv_line(fd, buffer, reply)) {
        char byte = 0;
        closed_after_reply = buffer.empty() && ::recv(fd, &byte, 1, 0) == 0;
      }
      ::close(fd);
    }
    const int other = connect_to_daemon();
    if (other >= 0) {
      const std::string ping = "{\"op\":\"ping\"}\n";
      std::string buffer;
      if (::send(other, ping.data(), ping.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(ping.size())) {
        (void)recv_line(other, buffer, ping_reply);
      }
      ::close(other);
    }
  }
  server.handle_line("{\"op\":\"shutdown\"}");
  daemon.join();

  ASSERT_NE(port, 0) << "serve_tcp never reported its port";
  ASSERT_FALSE(reply.empty()) << "no response to the over-long line";
  const obsj::Value response = obsj::parse(reply);
  EXPECT_FALSE(response.find("ok")->as_bool());
  const obsj::Value* error = response.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->find("kind")->as_string(), "line_too_long");
  EXPECT_TRUE(closed_after_reply) << "the connection stayed open";
  ASSERT_FALSE(ping_reply.empty()) << "the daemon stopped serving";
  EXPECT_TRUE(obsj::parse(ping_reply).find("ok")->as_bool());
}

TEST(ServeLruCache, EvictsLeastRecentlyUsed) {
  LruCache cache(2);
  const auto result = [](const char* name) {
    auto r = std::make_shared<core::SimResult>();
    r->config_name = name;
    return r;
  };
  cache.put("a", result("a"));
  cache.put("b", result("b"));
  ASSERT_NE(cache.get("a"), nullptr);  // "a" is now most recent.
  cache.put("c", result("c"));         // Evicts "b".
  EXPECT_EQ(cache.get("b"), nullptr);
  EXPECT_NE(cache.get("a"), nullptr);
  EXPECT_NE(cache.get("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);

  LruCache disabled(0);
  disabled.put("a", result("a"));
  EXPECT_EQ(disabled.get("a"), nullptr);
}

}  // namespace
}  // namespace respin::serve
