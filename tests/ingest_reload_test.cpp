// Live incremental-reload proof (ISSUE 10 acceptance): a tenant added
// to the --detect ownership config and signalled in via SIGHUP starts
// alerting in the SAME process — no restart, no journal re-replay.
//
// Drives the real artemis_ingest binary (fork+exec, like the kill test)
// against the FaultServer at a dribble pace so the reload provably lands
// mid-stream: start with a v1 config that owns only the fixture's v4
// space, rewrite the file to the multi-tenant v2 form that onboards
// tenant "acme" owning the hijacked v6 space, SIGHUP, and let the run
// finish. The stderr transcript must show the reload notice and an
// "acme"-scoped alert for the v6 hijack that only the reloaded table
// can classify.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "artemis/config.hpp"
#include "ingest/fault_server.hpp"
#include "ingest/fixture.hpp"

namespace artemis::ingest {
namespace {

using ingest_test::FaultServer;
using ingest_test::fixture_window;
using ingest_test::fresh_dir;

std::string ingest_binary_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[static_cast<std::size_t>(n)] = '\0';
  return (std::filesystem::path(buf).parent_path() / "artemis_ingest").string();
}

/// fork+exec with stderr captured to `stderr_path` (the alert and reload
/// lines land there).
pid_t spawn_ingest(const std::string& binary, const std::vector<std::string>& args,
                   const std::string& stderr_path) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::close(devnull);
    }
    const int err = ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (err >= 0) {
      ::dup2(err, STDERR_FILENO);
      ::close(err);
    }
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

void write_config(const std::string& path, const core::Config& config) {
  std::ofstream out(path, std::ios::trunc);
  out << config.to_json().dump(2) << "\n";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(IngestReloadTest, SighupOnboardsATenantWithoutRestart) {
  const std::string binary = ingest_binary_path();
  ASSERT_FALSE(binary.empty());
  ASSERT_TRUE(std::filesystem::exists(binary))
      << binary << " not built (tools disabled?)";

  // A long dribbled shelf: every window repeats the v4 hijack AND the
  // 2001:db8:dead::/48 v6 hijack, so whenever the reload lands there are
  // still v6 hijack observations ahead of it.
  FaultServer server;
  std::vector<std::string> urls;
  for (int i = 0; i < 64; ++i) {
    const std::string path = "/w" + std::to_string(i);
    server.add_file(path, fixture_window(3, 100 + i * 100));
    urls.push_back(server.url_for(path));
  }
  server.set_dribble(64, 2);

  // Before: v1 single-operator config, v4 space only — the v6 hijack is
  // unclassifiable. After: v2 tenants form; "acme" owns the v6 space.
  const std::string config_path = fresh_dir("reload_cfg") + ".json";
  core::Config before;
  core::OwnedPrefix v4;
  v4.prefix = net::Prefix::must_parse("10.0.0.0/23");
  v4.legitimate_origins.insert(65001);
  before.add_owned(std::move(v4));
  write_config(config_path, before);

  core::Config after;
  after.add_tenant("fleet");
  const core::TenantId acme = after.add_tenant("acme");
  core::OwnedPrefix v4b;
  v4b.prefix = net::Prefix::must_parse("10.0.0.0/23");
  v4b.legitimate_origins.insert(65001);
  after.add_owned(std::move(v4b));
  core::OwnedPrefix v6;
  v6.prefix = net::Prefix::must_parse("2001:db8::/32");
  v6.legitimate_origins.insert(65003);
  after.add_owned(acme, std::move(v6));

  const std::string journal_dir = fresh_dir("reload_journal");
  const std::string stderr_path = fresh_dir("reload_stderr") + ".txt";
  std::vector<std::string> args = {"--journal", journal_dir, "--max-lag", "8",
                                   "--policy", "flush",       "--timeout-ms", "5000",
                                   "--detect", config_path};
  args.insert(args.end(), urls.begin(), urls.end());

  const pid_t pid = spawn_ingest(binary, args, stderr_path);
  ASSERT_GT(pid, 0);

  // Let the dribbled ingest get going, then swap the file and signal.
  // The shelf is sized so ~100 ms is nowhere near its end (64 dribbled
  // windows take several seconds at 64 B / 2 ms).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  write_config(config_path, after);
  ASSERT_EQ(::kill(pid, SIGHUP), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.set_dribble(0, 0);  // finish at full speed

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  const std::string transcript = slurp(stderr_path);
  // The reload was acknowledged on the ingest thread...
  EXPECT_NE(transcript.find("reload: ownership config"), std::string::npos)
      << transcript;
  // ...and the onboarded tenant's space started alerting in-process: the
  // v6 hijack is only classifiable by the reloaded table, and its alert
  // line carries the non-default tenant's name.
  EXPECT_NE(transcript.find("2001:db8:dead::/48"), std::string::npos) << transcript;
  EXPECT_NE(transcript.find("tenant=acme"), std::string::npos) << transcript;
}

}  // namespace
}  // namespace artemis::ingest
