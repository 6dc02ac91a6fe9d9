#include "sampler.h"

#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

constexpr int kMaxDepth = 32;

struct Sample {
  int phase = 0;
  int depth = 0;
  std::uintptr_t frames[kMaxDepth] = {};
};

// Handler state. Written only by the handler between start() and stop();
// the buffer is allocated up front so the handler never allocates.
std::unique_ptr<Sample[]> g_buf;
std::size_t g_cap = 0;
std::atomic<std::size_t> g_next{0};
std::atomic<std::size_t> g_dropped{0};
std::atomic<int> g_phase{0};

// Executable mapping: load bias and executable PT_LOAD ranges.
std::uintptr_t g_exe_base = 0;
std::vector<std::pair<std::uintptr_t, std::uintptr_t>> g_exe_text;

std::uintptr_t interruptedPc(void* uc) {
  const auto* ctx = static_cast<const ucontext_t*>(uc);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(ctx->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(ctx->uc_mcontext.pc);
#else
#error "perfbench sampler: unsupported architecture"
#endif
}

void onProf(int /*sig*/, siginfo_t* /*info*/, void* uc) {
  const int saved_errno = errno;
  const std::size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i >= g_cap) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  Sample& s = g_buf[i];
  s.phase = g_phase.load(std::memory_order_relaxed);
  const std::uintptr_t pc = interruptedPc(uc);
  s.frames[0] = pc;
  s.depth = 1;
  // The unwind starts in this handler and crosses the kernel's signal
  // frame; the interrupted PC marks where the interrupted stack begins.
  void* bt[kMaxDepth + 8];
  const int n = backtrace(bt, kMaxDepth + 8);
  int k = 0;
  while (k < n && reinterpret_cast<std::uintptr_t>(bt[k]) != pc) ++k;
  for (int j = k + 1; j < n && s.depth < kMaxDepth; ++j)
    s.frames[s.depth++] = reinterpret_cast<std::uintptr_t>(bt[j]);
  errno = saved_errno;
}

int findExecutable(dl_phdr_info* info, std::size_t /*size*/, void* /*data*/) {
  // The first object dl_iterate_phdr reports is the main program.
  g_exe_base = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X) != 0) {
      const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
      g_exe_text.emplace_back(lo, lo + ph.p_memsz);
    }
  }
  return 1;
}

bool inExecutable(std::uintptr_t pc) {
  for (const auto& [lo, hi] : g_exe_text)
    if (pc >= lo && pc < hi) return true;
  return false;
}

}  // namespace

ProfSampler::ProfSampler(std::size_t capacity, int interval_us) {
  if (g_buf != nullptr) throw std::logic_error("one ProfSampler per process");
  g_buf = std::make_unique<Sample[]>(capacity);
  g_cap = capacity;
  g_next = 0;
  g_dropped = 0;
  g_exe_text.clear();
  dl_iterate_phdr(findExecutable, nullptr);

  // backtrace() loads the unwinder on first use; do that here, not in the
  // handler.
  void* warm[4];
  backtrace(warm, 4);

  struct sigaction sa = {};
  sa.sa_sigaction = onProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0)
    throw std::runtime_error("sigaction(SIGPROF) failed");
  interval_us_ = interval_us;
}

ProfSampler::~ProfSampler() {
  stop();
  // A SIGPROF still pending would terminate the process under SIG_DFL.
  signal(SIGPROF, SIG_IGN);
  g_buf.reset();
  g_cap = 0;
}

void ProfSampler::start() {
  itimerval it = {};
  it.it_interval.tv_usec = interval_us_;
  it.it_value.tv_usec = interval_us_;
  if (setitimer(ITIMER_PROF, &it, nullptr) != 0)
    throw std::runtime_error("setitimer(ITIMER_PROF) failed");
}

void ProfSampler::stop() {
  itimerval it = {};
  setitimer(ITIMER_PROF, &it, nullptr);
}

void ProfSampler::setPhase(int phase) {
  g_phase.store(phase, std::memory_order_relaxed);
}

std::size_t ProfSampler::samples() const {
  const std::size_t n = g_next.load(std::memory_order_relaxed);
  return n < g_cap ? n : g_cap;
}

std::size_t ProfSampler::dropped() const {
  return g_dropped.load(std::memory_order_relaxed);
}

void ProfSampler::writeStacks(std::ostream& out) const {
  std::map<std::pair<int, std::string>, std::size_t> stacks;
  const std::size_t n = samples();
  char buf[32];
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = g_buf[i];
    std::string key;
    for (int j = 0; j < s.depth; ++j) {
      const std::uintptr_t pc = s.frames[j];
      if (inExecutable(pc)) {
        const std::uintptr_t off = pc - g_exe_base - (j > 0 ? 1 : 0);
        std::snprintf(buf, sizeof buf, " x%llx",
                      static_cast<unsigned long long>(off));
        key += buf;
      } else {
        key += " -";
      }
    }
    ++stacks[{s.phase, key}];
  }
  for (const auto& [k, count] : stacks)
    out << k.first << ' ' << count << k.second << '\n';
}

}  // namespace perfbench
