// Shared declarations of the serving benchmark (see README.md).

#ifndef SERVEBENCH_BENCH_H_
#define SERVEBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/moe/model_configs.h"
#include "src/obs/tracer.h"
#include "src/serving/engine.h"

namespace servebench {

using samoyeds::MoeModelConfig;
using samoyeds::serving::EngineConfig;

// One workload: the model, the engine fields that differ from the defaults,
// and the make-up of one round of requests. Lengths are fixed multisets; the
// seed permutes them, draws every embedding row and, for Poisson arrivals,
// the arrival steps.
struct Workload {
  std::string name;
  MoeModelConfig model;
  int layers = 1;
  EngineConfig engine;
  // false: the client drives ServingEngine::Step itself; true: the engine
  // runs behind an AsyncServer and the client polls. Arrivals are indexed by
  // step either way.
  bool async_server = false;
  std::vector<int64_t> prompt_lens;    // one entry per request of a round
  std::vector<int64_t> decode_lens;    // same length as prompt_lens
  std::vector<int64_t> arrival_steps;  // sorted, one per request; or
  double arrivals_per_step = 0.0;      // > 0: Poisson arrivals at this rate
  // > 0: closed loop (step clock only). At most this many sessions are live;
  // a session due while all are taken is submitted once one finishes.
  int concurrency = 0;
  int64_t shared_prefix_rows = 0;      // system-prompt block length
  int shared_every = 0;                // every n-th request is unshared (0 = all shared)
  int setup_reps = 3;                  // set-ups per run; setup_s is their median
};

// Every workload by name; nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// ---- Trace roll-up ---------------------------------------------------------

// Phase times of one traced engine step (all in ms). `phases` holds the self
// time of each direct child span of the step (plan, evict, admit, assemble,
// retire); forward is the whole forward subtree.
struct StepTrace {
  int64_t step = 0;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  double step_ms = 0.0;
  double forward_ms = 0.0;
  double attn_ms = 0.0;
  double moe_ms = 0.0;
  double moe_self_ms = 0.0;
  double dispatch_ms = 0.0;
  double barrier_ms = 0.0;
  double fold_ms = 0.0;
  double tile_ms = 0.0;  // expert tiles on pool workers inside this step
  int64_t tiles = 0;
  std::map<std::string, double> phases;
};

// One attention slice executed on a pool worker.
struct SliceTrace {
  int64_t request_id = 0;
  int64_t begin_ns = 0;
  double us = 0.0;
};

struct RoundTrace {
  std::vector<StepTrace> steps;  // in order; idle steps have forward_ms == 0
  std::vector<SliceTrace> slices;
  // Session id -> tracer time at which the client's Submit returned.
  std::map<int64_t, int64_t> submitted_ns;
  int64_t dropped_events = 0;
};

// Rolls one capture up into self times. Self time is a span's duration minus
// the part covered by its child spans on the same thread.
RoundTrace RollUp(const std::vector<samoyeds::obs::TraceThread>& threads);

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_H_
