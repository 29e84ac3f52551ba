// Crash-kill survival torture test (ISSUE 6 acceptance harness).
//
// Drives the real artemis_ingest binary — fork+exec, not an in-process
// simulation — against the FaultServer serving a long shelf of archive
// URLs at a dribble pace, and SIGKILLs it at seeded-random points, over
// and over. No signal handlers, no atexit: the process dies with
// whatever half-written segment, buffered batch, and mid-rename cursor
// it had. After every kill the supervisor is restarted with the SAME
// arguments, and after the kill rounds a final run completes cleanly.
//
// The verdict is the strongest one the journal design supports across
// process death: the recovered journal holds exactly the records of the
// never-killed run (count equal, no torn tail) and replays to the very
// same canonical alert lines at 1 shard and 4 shards. Segment BOUNDARIES
// differ (each restart opens a new segment at the resume point), which
// is why the comparison is records + replayed alerts, not file bytes —
// the byte-identity half of the story is covered by ingest_test.cpp for
// within-process retries.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "ingest/fault_server.hpp"
#include "ingest/fixture.hpp"
#include "mrt/stream_reader.hpp"
#include "util/rng.hpp"

namespace artemis::ingest {
namespace {

using ingest_test::count_journal_records;
using ingest_test::FaultServer;
using ingest_test::fixture_window;
using ingest_test::fresh_dir;
using ingest_test::replay_alert_lines;

// Sized so the kill rounds CANNOT drain the shelf: total dribbled
// transfer time comfortably exceeds the sum of all kill delays, which
// guarantees every round actually lands a SIGKILL on a live supervisor
// (the ISSUE asks for >= 20 of them).
constexpr int kUrls = 96;
constexpr int kKillRounds = 26;
constexpr int kMinKills = 20;

std::string ingest_binary_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[static_cast<std::size_t>(n)] = '\0';
  return (std::filesystem::path(buf).parent_path() / "artemis_ingest").string();
}

pid_t spawn_supervisor(const std::string& binary,
                       const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: quiet stdout/stderr (each round prints warnings about the
    // archive it was murdered in the middle of) and become the tool.
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::dup2(devnull, STDERR_FILENO);
      ::close(devnull);
    }
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

TEST(IngestKillTest, RandomSigkillLoopLosesAndDuplicatesNothing) {
  const std::string binary = ingest_binary_path();
  ASSERT_FALSE(binary.empty());
  ASSERT_TRUE(std::filesystem::exists(binary))
      << binary << " not built (tools disabled?)";

  // A shelf of small archives: enough URLs that cursor-granularity
  // progress survives even rounds whose kill lands before the current
  // archive finishes re-fetching. Every 8th is gzip'd (when available)
  // so compressed re-fetch-and-skip resume is exercised across death.
  FaultServer server;
  std::vector<std::string> urls;
  for (int i = 0; i < kUrls; ++i) {
    auto entity = fixture_window(3, 100 + i * 100);
#ifdef ARTEMIS_HAVE_ZLIB
    if (i % 8 == 0) entity = mrt::gzip_compress(entity);
#endif
    const std::string path = "/w" + std::to_string(i);
    server.add_file(path, std::move(entity));
    urls.push_back(server.url_for(path));
  }

  const auto args_for = [&](const std::string& journal_dir) {
    // A tight lag bound so durable progress accrues *within* an archive,
    // not just at archive boundaries (the pipeline emits once per read,
    // so each 64-byte dribbled read gives a batch of a few records).
    std::vector<std::string> args = {
        "--journal", journal_dir, "--max-lag",    "8",    "--policy",
        "flush",     "--timeout-ms", "2000",      "--backoff-ms", "1",
        "--max-backoff-ms", "4",  "--seed",       "7"};
    args.insert(args.end(), urls.begin(), urls.end());
    return args;
  };

  const auto run_to_completion = [&](const std::string& journal_dir) {
    const pid_t pid = spawn_supervisor(binary, args_for(journal_dir));
    ASSERT_GT(pid, 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
  };

  // Golden run: same binary, same arguments, nobody shooting at it.
  const std::string golden_dir = fresh_dir("kill_golden");
  run_to_completion(golden_dir);
  const std::uint64_t golden_records = count_journal_records(golden_dir);
  ASSERT_GT(golden_records, 0u);

  // The kill loop. Dribble pacing stretches every transfer across the
  // SIGKILL window so kills land mid-archive, mid-batch, mid-anything.
  server.set_dribble(64, 2);
  Rng rng(20260808);
  const std::string kill_dir = fresh_dir("kill_victim");
  int killed = 0;
  bool completed = false;
  for (int round = 0; round < kKillRounds && !completed; ++round) {
    const pid_t pid = spawn_supervisor(binary, args_for(kill_dir));
    ASSERT_GT(pid, 0);
    const std::int64_t delay_ms = 10 + static_cast<std::int64_t>(rng.uniform_u64(51));
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    if (WIFSIGNALED(status)) {
      EXPECT_EQ(WTERMSIG(status), SIGKILL);
      ++killed;
    } else {
      // Beat the kill to the finish line: only possible near the end of
      // the shelf, and only if the sizing margin above is ever eroded.
      ASSERT_TRUE(WIFEXITED(status));
      ASSERT_EQ(WEXITSTATUS(status), 0) << "round " << round;
      completed = true;
    }
  }
  EXPECT_GE(killed, kMinKills);

  // Let the survivor finish at full speed, then render the verdict.
  server.set_dribble(0, 0);
  if (!completed) run_to_completion(kill_dir);

  // count_journal_records also asserts the recovered tail is not torn.
  EXPECT_EQ(count_journal_records(kill_dir), golden_records);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto killed_alerts = replay_alert_lines(kill_dir, shards);
    EXPECT_FALSE(killed_alerts.empty());
    EXPECT_EQ(killed_alerts, replay_alert_lines(golden_dir, shards));
  }
}

}  // namespace
}  // namespace artemis::ingest
