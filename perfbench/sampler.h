// In-process CPU sampler for the perfbench traced run.
//
// SIGPROF from ITIMER_PROF fires after every `interval_us` of process CPU
// time. The handler records the interrupted PC (from the signal context)
// and the return addresses above it, unwound with glibc backtrace() through
// the .eh_frame tables every RelWithDebInfo build carries. Nothing is
// symbolised in the handler: writeStacks() emits raw stacks with
// executable-relative offsets, and perfbench/run.py maps them to
// src/<module>/ through the binary's DWARF line tables (addr2line).
//
// One sampler per process (the handler state is global). Samples carry the
// phase that was current when they were taken, so one run can profile the
// untraced and traced halves separately.
#pragma once

#include <cstddef>
#include <ostream>

namespace perfbench {

class ProfSampler {
 public:
  // Preallocates `capacity` samples; samples past it are counted as dropped.
  ProfSampler(std::size_t capacity, int interval_us);
  ~ProfSampler();

  ProfSampler(const ProfSampler&) = delete;
  ProfSampler& operator=(const ProfSampler&) = delete;

  void start();
  void stop();
  // Tags the samples taken from now on.
  void setPhase(int phase);

  std::size_t samples() const;
  std::size_t dropped() const;

  // One line per distinct (phase, stack):
  //   <phase> <count> <frame0> <frame1> ...
  // A frame inside the executable is written as x<hex offset> (frame 0 is
  // the interrupted PC; callers are return addresses minus one, so they
  // name the call instruction); a frame elsewhere (libc, libstdc++, the
  // loader) is written as "-".
  void writeStacks(std::ostream& out) const;

 private:
  int interval_us_ = 1000;
};

}  // namespace perfbench
