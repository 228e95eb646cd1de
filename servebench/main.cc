// Serving benchmark: runs one workload against the library's public surface
// (SamoyedsDecoderLayerWeights::Encode, ServingEngine, AsyncServer), checks
// every output and prints its metrics. See README.md.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
// fully traced rounds and prints the per-layer metrics. The last line of
// standard output is one JSON object.

#include <malloc.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "servebench/bench.h"
#include "src/moe/decoder_layer.h"
#include "src/obs/metrics.h"
#include "src/serving/server.h"
#include "src/tensor/bf16.h"
#include "src/tensor/gemm_ref.h"
#include "src/tensor/rng.h"

// ---- Allocation counter -----------------------------------------------------
// Counts heap allocations made by library code while counting is on; threads
// and scopes that run benchmark code only mark themselves as clients. Every
// allocation form is replaced as a set, so nothing allocated by a default
// operator new is released into std::free.

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<int64_t> g_allocs{0};
thread_local bool t_client = false;

void* CountedAlloc(std::size_t size, std::size_t align) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed) && !t_client) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (align <= alignof(std::max_align_t)) {
    return std::malloc(size ? size : 1);
  }
  void* p = nullptr;
  return posix_memalign(&p, align, size ? size : align) == 0 ? p : nullptr;
}

void* CountedOrThrow(std::size_t size, std::size_t align) {
  if (void* p = CountedAlloc(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedOrThrow(n, 0); }
void* operator new[](std::size_t n) { return CountedOrThrow(n, 0); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n, 0); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }

namespace servebench {
namespace {

using samoyeds::DecoderLayerWeights;
using samoyeds::MatrixF;
using samoyeds::Rng;
using samoyeds::SamoyedsConfig;
using samoyeds::SamoyedsDecoderLayerWeights;
using samoyeds::obs::TraceDetail;
using samoyeds::obs::Tracer;
using samoyeds::serving::AsyncServer;
using samoyeds::serving::Request;
using samoyeds::serving::RequestStatus;
using samoyeds::serving::ServerClock;
using samoyeds::serving::ServerConfig;
using samoyeds::serving::ServingEngine;
using samoyeds::serving::StreamDelta;

const SamoyedsConfig kFormat{1, 2, 32};
constexpr double kRefTolerance = 2e-2;  // the serving tests' bf16 bound
constexpr int64_t kTraceRing = int64_t{1} << 19;
constexpr int64_t kSampledRounds = 4;
// peak_rss_mb is the largest resident set seen at the end of the warm-up round
// and of measured rounds [0, kRssRounds): a fixed amount of work, whatever the
// host's speed.
constexpr int64_t kRssRounds = 2;
constexpr double kPollGap = 200e-6;  // s, between the client's poll passes

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class ClientScope {
 public:
  ClientScope() : saved_(t_client) { t_client = true; }
  ~ClientScope() { t_client = saved_; }
  ClientScope(const ClientScope&) = delete;
  ClientScope& operator=(const ClientScope&) = delete;

 private:
  bool saved_;
};

// Current resident set of this process, from /proc/self/statm.
double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0.0;
  double resident_pages = 0.0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// Samples a percentile q needs so that at least ten lie beyond it.
size_t SamplesFor(double q) { return static_cast<size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9)); }

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && opt->seconds > 0.0;
    } else if (key == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      opt->trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace && !opt->workload.empty();
}

// ---- Inputs -------------------------------------------------------------------

// Masked dense weights: the independent reference, and what Encode compresses.
std::vector<DecoderLayerWeights> MakeDenseLayers(const Workload& w, uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<DecoderLayerWeights> layers;
  for (int l = 0; l < w.layers; ++l) {
    DecoderLayerWeights d = DecoderLayerWeights::Random(rng, w.model);
    for (auto& e : d.moe.experts) {
      e.ApplyMask(kFormat);
    }
    for (auto& e : d.moe.shared_experts) {
      e.ApplyMask(kFormat);
    }
    layers.push_back(std::move(d));
  }
  return layers;
}

std::vector<SamoyedsDecoderLayerWeights> Encode(const std::vector<DecoderLayerWeights>& dense) {
  std::vector<SamoyedsDecoderLayerWeights> layers;
  for (const DecoderLayerWeights& d : dense) {
    layers.push_back(SamoyedsDecoderLayerWeights::Encode(d, kFormat));
  }
  return layers;
}

struct SetupTimes {
  std::vector<double> total_s;  // setup_s
  std::vector<double> encode_s;
  std::vector<double> engine_s;
};

struct Served {
  std::unique_ptr<ServingEngine> engine;
  std::unique_ptr<AsyncServer> server;  // server workloads only, started
  double flops_per_token = 0.0;  // useful FLOPs of one routed token through one expert
  double expert_bytes = 0.0;     // one expert's stored weights
};

// One timed set-up: Encode of every layer, engine construction and, on the
// server workloads, server start. The dense weights are generated before the
// clock starts and released, with their pages, after it stops, so they are
// not part of the resident set while serving.
Served SetUp(const Workload& w, uint64_t seed, SetupTimes& times) {
  Served out;
  {
    const std::vector<DecoderLayerWeights> dense = MakeDenseLayers(w, seed);
    const double t0 = Now();
    std::vector<SamoyedsDecoderLayerWeights> layers = Encode(dense);
    const double t1 = Now();
    const auto& e0 = layers.front().moe.experts.front();
    for (const samoyeds::SamoyedsMatrix* m : {&e0.gate, &e0.up, &e0.down}) {
      out.flops_per_token += 2.0 * static_cast<double>(m->compressed_rows() * m->compressed_cols());
      out.expert_bytes += static_cast<double>(m->StorageBytes());
    }
    out.engine = std::make_unique<ServingEngine>(std::move(layers), w.engine);
    const double t2 = Now();
    if (w.async_server) {
      ServerConfig sc;
      sc.clock = ServerClock::kWall;
      out.server = std::make_unique<AsyncServer>(*out.engine, sc);
      out.server->Start();
    }
    const double t3 = Now();
    times.total_s.push_back(t3 - t0);
    times.encode_s.push_back(t1 - t0);
    times.engine_s.push_back(t2 - t1);
  }
  malloc_trim(0);
  return out;
}

// Times a set-up and discards what it built.
void SetUpAgain(const Workload& w, uint64_t seed, SetupTimes& times) {
  SetUp(w, seed, times);
  malloc_trim(0);
}

struct Session {
  Request request;  // kept for the output checks
  double due_s = 0.0;
  std::vector<float> rows;      // streamed rows, row-major
  std::vector<double> token_s;  // delivery time of each token row
  bool terminal = false;
  RequestStatus status = RequestStatus::kQueued;
};

// One round of requests; `offset` is each request's due step, counted from
// the round's start.
struct Round {
  std::vector<Session> sessions;
  std::vector<double> offset;
};

Round MakeRound(const Workload& w, uint64_t seed, int64_t round, int64_t first_id) {
  Rng rng((seed + 1) * 0xbf58476d1ce4e5b9ull ^
          static_cast<uint64_t>(round + 1) * 0x94d049bb133111ebull);
  const size_t n = w.prompt_lens.size();
  std::vector<int64_t> prompts = w.prompt_lens;
  std::vector<int64_t> decodes = w.decode_lens;
  for (std::vector<int64_t>* v : {&prompts, &decodes}) {  // Fisher-Yates
    for (size_t i = n; i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[static_cast<size_t>(rng.NextIndex(static_cast<int64_t>(i)))]);
    }
  }
  Round r;
  if (w.arrivals_per_step > 0.0) {
    // Poisson arrivals over steps, conditioned on the first at step 0 and the
    // other n - 1 in the round's span: sorted uniform steps. The span, and so
    // the offered load, is the same in every round.
    const double span = static_cast<double>(n) / w.arrivals_per_step;
    r.offset.push_back(0.0);
    for (size_t i = 1; i < n; ++i) {
      r.offset.push_back(std::floor(rng.NextDouble() * span));
    }
    std::sort(r.offset.begin(), r.offset.end());
  } else {
    r.offset.assign(w.arrival_steps.begin(), w.arrival_steps.end());
  }
  const int64_t hidden = w.model.hidden;
  // The system-prompt block is drawn from the seed alone, so every round
  // shares it.
  Rng sys_rng(seed * 0x2545f4914f6cdd1dull + 7);
  MatrixF system =
      sys_rng.GaussianMatrix(std::max<int64_t>(1, w.shared_prefix_rows), hidden, 0.5f);
  samoyeds::RoundMatrixToBf16(system);
  for (size_t i = 0; i < n; ++i) {
    Session s;
    Request& q = s.request;
    q.id = first_id + static_cast<int64_t>(i);
    q.prompt_len = prompts[i] + w.shared_prefix_rows;
    q.max_new_tokens = decodes[i];
    q.inputs = rng.GaussianMatrix(q.prompt_len + q.max_new_tokens, hidden, 0.5f);
    samoyeds::RoundMatrixToBf16(q.inputs);
    const bool shared = w.shared_every == 0 || (i % static_cast<size_t>(w.shared_every)) != 0;
    if (w.shared_prefix_rows > 0 && shared) {
      std::copy(system.data(), system.data() + system.size(), q.inputs.data());
    }
    r.sessions.push_back(std::move(s));
  }
  return r;
}

// Records rows [position, position + rows) of `s` delivered at time `t`.
void Deliver(Session& s, int64_t position, const float* data, int64_t rows, int64_t hidden,
             double t) {
  s.rows.insert(s.rows.end(), data, data + rows * hidden);
  for (int64_t p = position; p < position + rows; ++p) {
    if (p >= s.request.prompt_len - 1) {
      s.token_s.push_back(t);
    }
  }
}

// ---- Measurements -------------------------------------------------------------

struct Samples {
  std::vector<double> goodput;  // per round
  std::vector<double> ttft_ms;
  std::vector<double> itl_ms;
  // Sample counts at the end of each round, for the latency windows.
  std::vector<size_t> ttft_round_end;
  std::vector<size_t> itl_round_end;
  std::vector<double> submit_us;
  samoyeds::obs::Histogram poll_us{1000.0};  // every Poll: too many to keep
};

// Submits at the due step (with `concurrency` > 0, no earlier than a free
// slot) and steps the engine until the round drains. Returns the number of
// Step() calls; each call's duration goes to `step_ms`.
int64_t RunStepRound(ServingEngine& engine, Round& round, int64_t hidden, int concurrency,
                     bool count_allocs, Samples& out, std::vector<double>& step_ms) {
  const size_t n = round.sessions.size();
  size_t next = 0;
  size_t live = 0;
  int64_t base = engine.current_step();
  while (next < n || live > 0) {
    int64_t cur = engine.current_step() - base;
    const int64_t due = static_cast<int64_t>(round.offset[std::min(next, n - 1)]);
    if (live == 0 && next < n && due > cur) {
      base -= due - cur;  // idle: the next arrival is due now
      cur = due;
    }
    const double t_due = Now();
    while (next < n && static_cast<int64_t>(round.offset[next]) <= cur &&
           (concurrency == 0 || live < static_cast<size_t>(concurrency))) {
      Session& s = round.sessions[next];
      s.due_s = t_due;
      Request q = s.request;
      q.arrival_step = engine.current_step();
      auto on_rows = [&s, &live, &engine, hidden](const StreamDelta& d) {
        ClientScope client;
        Deliver(s, d.position_begin, d.rows.data(), d.rows.rows(), hidden, Now());
        if (d.finished) {
          s.terminal = true;
          s.status = engine.Status(s.request.id);
          --live;
        }
      };
      const double t0 = Now();
      const bool ok = engine.Submit(std::move(q), on_rows).ok();
      const double t1 = Now();
      samoyeds::obs::TraceAsyncInstant("bench", "submitted", TraceDetail::kRequest, s.request.id);
      out.submit_us.push_back((t1 - t0) * 1e6);
      live += ok ? 1 : 0;
      ++next;
    }
    g_count_allocs.store(count_allocs, std::memory_order_relaxed);
    const double t0 = Now();
    const bool busy = engine.Step();
    const double t1 = Now();
    g_count_allocs.store(false, std::memory_order_relaxed);
    if (!busy && next >= n) {
      break;  // drained with sessions unfinished: the checks report them
    }
    step_ms.push_back((t1 - t0) * 1e3);
  }
  return static_cast<int64_t>(step_ms.size());
}

// Through the AsyncServer: one client thread watches the server's step count,
// submits each request once its due step is reached (jumping ahead when the
// server is idle, as on the step clock) and polls every live session in
// between. Returns the server's Step() calls.
int64_t RunServerRound(AsyncServer& server, Round& round, int64_t hidden, bool count_allocs,
                       Samples& out) {
  ClientScope client;
  const size_t n = round.sessions.size();
  std::vector<size_t> live;
  size_t next = 0;
  const int64_t steps_before = server.steps();
  int64_t base = steps_before;
  server.Start();
  g_count_allocs.store(count_allocs, std::memory_order_relaxed);
  while (next < n || !live.empty()) {
    int64_t cur = server.steps() - base;
    const int64_t due = static_cast<int64_t>(round.offset[std::min(next, n - 1)]);
    if (live.empty() && next < n && due > cur) {
      base -= due - cur;  // idle: the next arrival is due now
      cur = due;
    }
    const double t_due = Now();
    while (next < n && static_cast<int64_t>(round.offset[next]) <= cur) {
      Session& s = round.sessions[next];
      s.due_s = t_due;
      const double t0 = Now();
      const bool ok = server.Submit(s.request);
      const double t1 = Now();
      samoyeds::obs::TraceAsyncInstant("bench", "submitted", TraceDetail::kRequest, s.request.id);
      out.submit_us.push_back((t1 - t0) * 1e6);
      if (ok) {
        live.push_back(next);
      } else {
        s.terminal = true;
      }
      ++next;
    }
    for (size_t k = 0; k < live.size();) {
      Session& s = round.sessions[live[k]];
      const int64_t have = static_cast<int64_t>(s.rows.size()) / hidden;
      const double t0 = Now();
      const samoyeds::serving::ServerPollResult p = server.Poll(s.request.id);
      const double t1 = Now();
      out.poll_us.Record((t1 - t0) * 1e6);
      if (p.new_rows.rows() > 0) {
        Deliver(s, have, p.new_rows.data(), p.new_rows.rows(), hidden, t1);
      }
      if (p.terminal) {
        s.terminal = true;
        s.status = p.status;
        live[k] = live.back();
        live.pop_back();
      } else {
        ++k;
      }
    }
    // Sleep briefly between passes (the timer slack is set small in main),
    // leaving the cores to the server.
    std::this_thread::sleep_for(std::chrono::duration<double>(kPollGap));
  }
  server.Drain();
  g_count_allocs.store(false, std::memory_order_relaxed);
  server.Stop();
  return server.steps() - steps_before;
}

// Latency samples and goodput of a drained round.
double Collect(const Round& round, int64_t hidden, Samples& out) {
  double first_due = 1e300;
  double last_delivery = 0.0;
  double rows = 0.0;
  for (const Session& s : round.sessions) {
    first_due = std::min(first_due, s.due_s);
    if (s.token_s.empty()) {
      continue;
    }
    last_delivery = std::max(last_delivery, s.token_s.back());
    if (s.terminal && s.status == RequestStatus::kFinished) {
      rows += static_cast<double>(s.rows.size()) / static_cast<double>(hidden);
    }
    out.ttft_ms.push_back((s.token_s.front() - s.due_s) * 1e3);
    for (size_t i = 1; i < s.token_s.size(); ++i) {
      out.itl_ms.push_back((s.token_s[i] - s.token_s[i - 1]) * 1e3);
    }
  }
  return last_delivery > first_due ? rows / (last_delivery - first_due) : 0.0;
}

// The q-th percentile of `v` per window of consecutive rounds, and the median
// over windows. A window closes once it holds the samples q needs (ten beyond
// it); a trailing partial window joins the one before it. `round_end` holds
// the sample count at the end of each round.
double WindowedPercentile(const std::vector<double>& v, const std::vector<size_t>& round_end,
                          double q) {
  std::vector<size_t> ends;
  size_t begin = 0;
  for (const size_t end : round_end) {
    if (end - begin >= SamplesFor(q)) {
      ends.push_back(end);
      begin = end;
    }
  }
  if (ends.empty()) {
    ends.push_back(v.size());
  }
  ends.back() = v.size();
  std::vector<double> per_window;
  begin = 0;
  for (const size_t end : ends) {
    per_window.push_back(Percentile(std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(begin),
                                                        v.begin() + static_cast<std::ptrdiff_t>(end)),
                                    q));
    begin = end;
  }
  return Median(per_window);
}

// ---- Output checks --------------------------------------------------------------

struct Checks {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Expect(bool ok, const char* what, int64_t id) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "check failed: %s (session %lld)\n", what, static_cast<long long>(id));
    }
  }
};

bool SameRows(const std::vector<float>& rows, const MatrixF& m) {
  return static_cast<int64_t>(rows.size()) == m.size() &&
         std::memcmp(rows.data(), m.data(), rows.size() * sizeof(float)) == 0;
}

// Every session finished with all its rows, and the streamed rows equal the
// engine's materialized result. The engine must be idle.
void CheckRound(const ServingEngine& engine, const Round& round, int64_t hidden, Checks& checks) {
  for (const Session& s : round.sessions) {
    const Request& q = s.request;
    const samoyeds::serving::RequestResult* res = engine.Result(q.id);
    const bool finished = engine.Status(q.id) == RequestStatus::kFinished && res != nullptr;
    const bool complete = static_cast<int64_t>(s.rows.size()) == q.total_tokens() * hidden &&
                          static_cast<int64_t>(s.token_s.size()) == q.max_new_tokens + 1;
    checks.Expect(finished && complete && SameRows(s.rows, res->outputs),
                  "finished with every row, streamed rows equal Result().outputs", q.id);
  }
}

// Checks a sampled session against the dense reference, and re-runs it alone
// on `solo`, which must reproduce its batched rows bit for bit. `solo` has no
// prefix cache, so a session that was served from cached prefix rows is
// recomputed in full here.
void CheckSample(const Workload& w, const std::vector<DecoderLayerWeights>& dense,
                 ServingEngine& solo, const Session& s, int64_t solo_id, Checks& checks) {
  const Request& q = s.request;
  const MatrixF got = MatrixF::FromRowMajor(q.total_tokens(), w.model.hidden, s.rows);
  const MatrixF ref = samoyeds::DecoderStackForwardReference(q.inputs, dense, w.engine.heads,
                                                             w.engine.top_k, w.engine.activation);
  checks.Expect(samoyeds::RelativeError(got, ref) < kRefTolerance,
                "matches the dense reference", q.id);

  Request alone = q;
  alone.id = solo_id;
  alone.arrival_step = solo.current_step();
  solo.Submit(std::move(alone));
  solo.RunUntilDrained(1 << 20);
  const samoyeds::serving::RequestResult* res = solo.Result(solo_id);
  checks.Expect(res != nullptr && SameRows(s.rows, res->outputs),
                "re-run alone is bit-identical to its batched rows", q.id);
}

// ---- Result line ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, const Checks& checks, const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(checks.attempted) +
                     ", \"failed\": " + std::to_string(checks.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// Per-layer accumulators over the traced rounds.
struct LayerStats {
  std::vector<StepTrace> steps;         // forward steps
  double all_steps_ms = 0.0;            // every traced step span
  double phases_ms = 0.0;               // named phases + forward, every traced step
  double client_step_ms = 0.0;          // client-timed Step() (step clock)
  std::vector<double> ingress_wait_ms;
  std::vector<double> slice_us[3];      // decode slices by context third
  double expert_tokens = 0.0;           // routed tokens
  int64_t dropped_events = 0;
};

// Folds one traced round into `acc`. `admit_step` maps session id to the step
// that admitted it.
void AddTrace(const RoundTrace& t, const Round& round, const Workload& w,
              const std::map<int64_t, int64_t>& admit_step, LayerStats& acc) {
  acc.dropped_events += t.dropped_events;
  std::map<int64_t, int64_t> step_begin;
  for (const StepTrace& st : t.steps) {
    step_begin[st.step] = st.begin_ns;
    acc.all_steps_ms += st.step_ms;
    acc.phases_ms += st.forward_ms;
    for (const auto& [name, ms] : st.phases) {
      acc.phases_ms += ms;
    }
    if (st.forward_ms > 0.0) {
      acc.steps.push_back(st);
    }
  }
  for (const auto& [id, ns] : t.submitted_ns) {
    const auto a = admit_step.find(id);
    if (a != admit_step.end() && step_begin.count(a->second) != 0) {
      acc.ingress_wait_ms.push_back(static_cast<double>(step_begin[a->second] - ns) * 1e-6);
    }
  }
  // Decode slices: the last max_new_tokens steps a session appears in are its
  // decode steps, each one row at a known context length.
  // Buckets: thirds of the workload's decode context range.
  const int64_t min_ctx =
      *std::min_element(w.prompt_lens.begin(), w.prompt_lens.end()) + w.shared_prefix_rows + 1;
  const int64_t max_ctx = *std::max_element(w.prompt_lens.begin(), w.prompt_lens.end()) +
                          w.shared_prefix_rows +
                          *std::max_element(w.decode_lens.begin(), w.decode_lens.end());
  std::map<int64_t, std::vector<std::pair<int64_t, double>>> by_session;  // (step begin, us)
  for (const SliceTrace& sl : t.slices) {
    auto it = std::upper_bound(t.steps.begin(), t.steps.end(), sl.begin_ns,
                               [](int64_t ts, const StepTrace& st) { return ts < st.begin_ns; });
    if (it != t.steps.begin()) {
      by_session[sl.request_id].emplace_back(std::prev(it)->begin_ns, sl.us);
    }
  }
  for (const Session& s : round.sessions) {
    const auto it = by_session.find(s.request.id);
    if (it == by_session.end()) {
      continue;
    }
    std::vector<int64_t> steps;
    for (const auto& [begin, us] : it->second) {
      if (steps.empty() || steps.back() != begin) {
        steps.push_back(begin);
      }
    }
    const int64_t decode = std::min<int64_t>(s.request.max_new_tokens,
                                             static_cast<int64_t>(steps.size()) - 1);
    for (const auto& [begin, us] : it->second) {
      const int64_t from_end =
          static_cast<int64_t>(steps.end() - std::find(steps.begin(), steps.end(), begin));
      if (from_end > decode) {
        continue;  // a prefill slice
      }
      const int64_t ctx = s.request.prompt_len + s.request.max_new_tokens - from_end + 1;
      const int bucket = static_cast<int>(
          std::clamp<int64_t>(3 * (ctx - min_ctx) / (max_ctx - min_ctx + 1), 0, 2));
      acc.slice_us[bucket].push_back(us);
    }
  }
}

int Run(const Options& opt) {
  const Workload* found = FindWorkload(opt.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload: %s (known:", opt.workload.c_str());
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }
  const Workload& w = *found;
  const int64_t hidden = w.model.hidden;
  const double t_begin = Now();

  // The first set-up builds the engine (and server) that serves. The other
  // set-ups are spread over the run, between rounds, so that setup_s is a
  // median over the same stretch of host time as the serving metrics: the
  // host's speed changes from one second to the next, and a burst of
  // back-to-back set-ups at the start would see only one of its levels.
  SetupTimes setup;
  Served served = SetUp(w, opt.seed, setup);
  ServingEngine* engine = served.engine.get();
  AsyncServer* server = served.server.get();

  // Whole rounds until the run has lasted --seconds, every reported
  // percentile has its samples and the resident set has been sampled; with
  // --trace 1 every second round is traced.
  Samples all;     // untraced rounds
  Samples traced;  // traced rounds
  LayerStats layer;
  std::vector<int64_t> round_steps;
  std::vector<Session> sampled;
  Checks checks;
  int64_t allocs = 0;
  int64_t alloc_steps = 0;
  int64_t hit_samples = 0;  // sampled sessions served from cached prefix rows
  double peak_rss_mb = 0.0;
  // Round -1 warms caches and lazily sized workspaces; it is checked but not
  // measured.
  Samples warmup;
  double t_start = Now();
  for (int64_t r = -1;; ++r) {
    if (r == 0) {
      t_start = Now();
    }
    // Set-up k of the remaining ones is due k/setup_reps of the way through
    // the run; none runs before the resident set has been sampled.
    while (r >= kRssRounds && static_cast<int>(setup.total_s.size()) < w.setup_reps &&
           Now() - t_start >= opt.seconds * static_cast<double>(setup.total_s.size()) /
                                  static_cast<double>(w.setup_reps)) {
      SetUpAgain(w, opt.seed, setup);
    }
    const bool done_time = r >= 0 && Now() - t_start >= opt.seconds;
    const bool done_samples = opt.trace ? r >= 4
                                        : r >= kRssRounds &&
                                              all.ttft_ms.size() >= SamplesFor(0.90) &&
                                              all.itl_ms.size() >= SamplesFor(0.90);
    if (done_time && done_samples) {
      break;
    }
    const int64_t first_id = (r + 1) * static_cast<int64_t>(w.prompt_lens.size());
    Round round = MakeRound(w, opt.seed, r, first_id);
    const bool trace_round = opt.trace && r >= 0 && r % 2 == 1;
    const bool count = opt.trace && r >= 0 && !trace_round;
    std::vector<int64_t> tokens_before;
    if (trace_round) {
      tokens_before = engine->metrics().expert_tokens();
      Tracer::Get().Start(TraceDetail::kFull, kTraceRing);
    }
    g_allocs.store(0);
    Samples& sink = r < 0 ? warmup : trace_round ? traced : all;
    std::vector<double> step_ms;
    const int64_t steps = w.async_server
                              ? RunServerRound(*server, round, hidden, count, sink)
                              : RunStepRound(*engine, round, hidden, w.concurrency, count,
                                             sink, step_ms);
    if (count) {
      allocs += g_allocs.load();
      alloc_steps += steps;
    }
    sink.goodput.push_back(Collect(round, hidden, sink));
    sink.ttft_round_end.push_back(sink.ttft_ms.size());
    sink.itl_round_end.push_back(sink.itl_ms.size());
    if (r < kRssRounds) {
      peak_rss_mb = std::max(peak_rss_mb, CurrentRssMb());
    }
    if (r >= 0) {
      round_steps.push_back(steps);
    }
    if (trace_round) {
      Tracer::Get().Stop();
      std::map<int64_t, int64_t> admit_step;
      for (const auto& [id, rm] : engine->metrics().requests()) {
        admit_step[id] = rm.admit_step;
      }
      AddTrace(RollUp(Tracer::Get().Snapshot()), round, w, admit_step, layer);
      layer.client_step_ms += std::accumulate(step_ms.begin(), step_ms.end(), 0.0);
      const std::vector<int64_t> tokens_after = engine->metrics().expert_tokens();
      for (size_t e = 0; e < tokens_after.size(); ++e) {
        layer.expert_tokens += static_cast<double>(
            tokens_after[e] - (e < tokens_before.size() ? tokens_before[e] : 0));
      }
    }
    CheckRound(*engine, round, hidden, checks);
    // One session from each of the first rounds, picked by the seed, for the
    // heavier checks. With a prefix cache, the first round's pick moves on to
    // the next session that was served from cached prefix rows, if any was.
    if (r >= 0 && r < kSampledRounds) {
      Rng pick(opt.seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(r));
      const size_t n = round.sessions.size();
      size_t k = static_cast<size_t>(pick.NextIndex(static_cast<int64_t>(n)));
      if (w.engine.prefix_cache && r == 0) {
        const auto requests = engine->metrics().requests();
        for (size_t i = 0; i < n; ++i) {
          const size_t j = (k + i) % n;
          if (requests.at(round.sessions[j].request.id).cached_prompt_tokens > 0) {
            k = j;
            ++hit_samples;
            break;
          }
        }
      }
      sampled.push_back(std::move(round.sessions[k]));
    }
  }
  const double t_end = Now();
  while (static_cast<int>(setup.total_s.size()) < w.setup_reps) {
    SetUpAgain(w, opt.seed, setup);
  }

  // Engine-side counts (the engine is idle: every round drained).
  const auto requests = engine->metrics().requests();
  const auto engine_steps = engine->metrics().steps();
  const samoyeds::serving::ServingReport report = engine->Report();
  std::vector<double> queue_wait;
  double prompt_tokens = 0.0;
  double hit_tokens = 0.0;
  for (const auto& [id, rm] : requests) {
    queue_wait.push_back(static_cast<double>(rm.admit_step - rm.arrival_step));
    prompt_tokens += static_cast<double>(rm.prompt_len);
    hit_tokens += static_cast<double>(rm.cached_prompt_tokens);
  }
  std::vector<double> batch_rows;
  for (const auto& sm : engine_steps) {
    batch_rows.push_back(static_cast<double>(sm.batch_rows));
  }

  // Heavier checks on the sampled sessions; on chat_poisson one of them is a
  // prefix-cache hit whenever the run had one.
  const double t_checks = Now();
  served.server.reset();
  served.engine.reset();
  EngineConfig solo_cfg = w.engine;
  solo_cfg.threads = 1;
  solo_cfg.prefix_cache = false;
  const std::vector<DecoderLayerWeights> dense = MakeDenseLayers(w, opt.seed);
  ServingEngine solo(Encode(dense), solo_cfg);
  int64_t solo_id = int64_t{1} << 40;
  for (const Session& s : sampled) {
    CheckSample(w, dense, solo, s, solo_id++, checks);
  }
  std::fprintf(stderr, "phases: inputs+setup %.2f s, rounds %.2f s, sampled checks %.2f s\n",
               t_start - t_begin, t_end - t_start, Now() - t_checks);

  std::vector<Metric> metrics;
  const auto add = [&](const char* name, double value, const char* unit) {
    metrics.push_back(Metric{name, value, unit});
  };
  if (!opt.trace) {
    add("setup_s", Median(setup.total_s), "s");
    add("goodput_tok_s", Median(all.goodput), "tok/s");
    add("ttft_ms_p50", WindowedPercentile(all.ttft_ms, all.ttft_round_end, 0.50), "ms");
    add("ttft_ms_p90", WindowedPercentile(all.ttft_ms, all.ttft_round_end, 0.90), "ms");
    add("itl_ms_p50", WindowedPercentile(all.itl_ms, all.itl_round_end, 0.50), "ms");
    add("itl_ms_p90", WindowedPercentile(all.itl_ms, all.itl_round_end, 0.90), "ms");
    std::printf("pooled: ttft_ms_p50=%.6g ttft_ms_p90=%.6g itl_ms_p50=%.6g itl_ms_p90=%.6g "
                "itl_ms_p99=%.6g\n",
                Percentile(all.ttft_ms, 0.50), Percentile(all.ttft_ms, 0.90),
                Percentile(all.itl_ms, 0.50), Percentile(all.itl_ms, 0.90),
                Percentile(all.itl_ms, 0.99));
    add("peak_rss_mb", peak_rss_mb, "MB");
    std::printf("samples: rounds=%zu ttft=%zu itl=%zu\n", all.goodput.size(), all.ttft_ms.size(),
                all.itl_ms.size());
    std::printf("setup: min %.6f median %.6f max %.6f s over %zu reps\n",
                Percentile(setup.total_s, 0.0), Median(setup.total_s),
                Percentile(setup.total_s, 1.0), setup.total_s.size());
    std::printf("round goodput: min %.1f median %.1f max %.1f tok/s\n",
                Percentile(all.goodput, 0.0), Median(all.goodput), Percentile(all.goodput, 1.0));
  } else {
    const auto step_median = [&](auto field) {
      std::vector<double> v;
      for (const StepTrace& st : layer.steps) {
        v.push_back(field(st));
      }
      return Median(v);
    };
    const auto phase = [&](const char* name) {
      return step_median([name](const StepTrace& st) {
        const auto it = st.phases.find(name);
        return it == st.phases.end() ? 0.0 : it->second;
      });
    };
    double forward_ms = 0.0;
    double attn_ms = 0.0;
    double moe_ms = 0.0;
    double tile_ms = 0.0;
    double tiles = 0.0;
    for (const StepTrace& st : layer.steps) {
      forward_ms += st.forward_ms;
      attn_ms += st.attn_ms;
      moe_ms += st.moe_ms;
      tile_ms += st.tile_ms;
      tiles += static_cast<double>(st.tiles);
    }
    const double nsteps = std::max<double>(1.0, static_cast<double>(layer.steps.size()));
    add("setup.encode_s", Median(setup.encode_s), "s");
    add("setup.engine_s", Median(setup.engine_s), "s");
    add("server.submit_us_p50", Percentile(all.submit_us, 0.50), "us");
    add("server.poll_us_p50", all.poll_us.Percentile(0.50), "us");
    add("server.ingress_wait_ms_p50", Percentile(layer.ingress_wait_ms, 0.50), "ms");
    add("sched.queue_wait_steps_p50", Percentile(queue_wait, 0.50), "steps");
    add("sched.batch_rows_mean", Mean(batch_rows), "rows");
    std::vector<double> per_round(round_steps.begin(), round_steps.end());
    add("sched.steps", Mean(per_round), "steps/round");
    add("kv.peak_pages", static_cast<double>(report.peak_used_pages), "pages");
    add("prefix.hit_rate", prompt_tokens > 0.0 ? hit_tokens / prompt_tokens : 0.0, "ratio");
    add("engine.plan_self_ms_p50", phase("plan"), "ms");
    add("engine.evict_self_ms_p50", phase("evict"), "ms");
    add("engine.admit_self_ms_p50", phase("admit"), "ms");
    add("engine.assemble_self_ms_p50", phase("assemble"), "ms");
    add("engine.retire_self_ms_p50", phase("retire"), "ms");
    add("engine.step_ms_p50", step_median([](const StepTrace& st) { return st.step_ms; }), "ms");
    add("engine.phase_sum_ratio",
        layer.phases_ms / (w.async_server ? layer.all_steps_ms : layer.client_step_ms), "ratio");
    add("engine.allocs_per_step",
        static_cast<double>(allocs) / std::max<double>(1.0, static_cast<double>(alloc_steps)),
        "count");
    add("attn.self_ms_share", forward_ms > 0.0 ? attn_ms / forward_ms : 0.0, "ratio");
    add("moe.ms_share", forward_ms > 0.0 ? moe_ms / forward_ms : 0.0, "ratio");
    add("attn.slice_us_per_row.lo", Median(layer.slice_us[0]), "us");
    add("attn.slice_us_per_row.mid", Median(layer.slice_us[1]), "us");
    add("attn.slice_us_per_row.hi", Median(layer.slice_us[2]), "us");
    add("moe.self_ms", step_median([](const StepTrace& st) { return st.moe_self_ms; }), "ms");
    add("pool.tile_ms", step_median([](const StepTrace& st) { return st.tile_ms; }), "ms");
    add("pool.barrier_ms", step_median([](const StepTrace& st) { return st.barrier_ms; }), "ms");
    add("pool.dispatch_ms", step_median([](const StepTrace& st) { return st.dispatch_ms; }), "ms");
    add("pool.fold_ms", step_median([](const StepTrace& st) { return st.fold_ms; }), "ms");
    add("pool.busy_ratio", moe_ms > 0.0 ? tile_ms / (w.engine.threads * moe_ms) : 0.0, "ratio");
    add("ssmm.gflops",
        tile_ms > 0.0 ? layer.expert_tokens * served.flops_per_token / (tile_ms * 1e-3) * 1e-9 : 0.0,
        "GFLOP/s");
    add("ssmm.bytes",
        (tiles * served.expert_bytes + layer.expert_tokens * static_cast<double>(hidden) * 6.0) / nsteps,
        "B/step");
    add("trace.overhead_pct", 100.0 * (1.0 - Median(traced.goodput) / Median(all.goodput)), "%");
    std::printf("traced rounds=%zu forward steps=%zu dropped events=%lld\n",
                traced.goodput.size(), layer.steps.size(),
                static_cast<long long>(layer.dropped_events));
  }
  std::printf("checks: %lld attempted, %lld failed; sampled %zu, of them prefix hits %lld\n",
              static_cast<long long>(checks.attempted), static_cast<long long>(checks.failed),
              sampled.size(), static_cast<long long>(hit_samples));
  for (const Metric& m : metrics) {
    std::printf("%-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = checks.failed == 0 && layer.dropped_events == 0;
  PrintResult(correct, checks, metrics);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  // Sleeps of the polling client end within microseconds of their target.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  servebench::Options opt;
  if (!servebench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  return servebench::Run(opt);
}
