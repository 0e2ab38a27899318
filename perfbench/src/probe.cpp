#include "probe.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <queue>
#include <unordered_map>

namespace perfbench {

namespace {

std::uint64_t nextRandom(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

struct Entry {
  std::uint64_t when = 0;
  std::uint32_t id = 0;
  // std::priority_queue is a max-heap; invert for earliest-first.
  bool operator<(const Entry& other) const { return when > other.when; }
};

double runProbe() {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  std::uint64_t checksum = 0;
  std::priority_queue<Entry> queue;
  std::unordered_map<std::uint32_t, std::uint64_t> state;
  state.reserve(std::size_t{1} << 17);
  for (std::uint32_t i = 0; i < 100'000; ++i) {
    queue.push({nextRandom(rng) % 1'000'000, i});
  }
  for (int step = 0; step < 150'000; ++step) {
    const Entry entry = queue.top();
    queue.pop();
    std::uint64_t& value = state[entry.id % 100'000];
    value += entry.when;
    checksum += value;
    queue.push({entry.when + nextRandom(rng) % 1'000'000,
                static_cast<std::uint32_t>(nextRandom(rng))});
  }
  // Keeps the work observable so it cannot be optimized away.
  volatile std::uint64_t sink = checksum;
  (void)sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

double probeSeconds() {
  // The probe runs in a forked child so its ~10 MB of heap never counts
  // toward the benchmark process's peak RSS.
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("perfbench: probe pipe");
    std::abort();
  }
  const pid_t child = fork();
  if (child < 0) {
    std::perror("perfbench: probe fork");
    std::abort();
  }
  if (child == 0) {
    close(fds[0]);
    const double seconds = runProbe();
    const bool ok = write(fds[1], &seconds, sizeof(seconds)) ==
                    static_cast<ssize_t>(sizeof(seconds));
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  double seconds = 0.0;
  const bool ok = read(fds[0], &seconds, sizeof(seconds)) ==
                  static_cast<ssize_t>(sizeof(seconds));
  close(fds[0]);
  int status = 0;
  pid_t waited = -1;
  do {
    waited = waitpid(child, &status, 0);
  } while (waited < 0 && errno == EINTR);
  if (!ok || waited != child || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "perfbench: probe child failed\n");
    std::abort();
  }
  return seconds;
}

}  // namespace perfbench
