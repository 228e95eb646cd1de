// The benchmark's workloads. Why each exists is in README.md; the numbers
// here are its make-up.

#include <algorithm>

#include "servebench/bench.h"

namespace servebench {
namespace {

// `n` lengths spread evenly over [lo, hi].
std::vector<int64_t> Spread(int n, int64_t lo, int64_t hi) {
  std::vector<int64_t> v;
  for (int i = 0; i < n; ++i) {
    v.push_back(n == 1 ? lo : lo + (hi - lo) * i / (n - 1));
  }
  return v;
}

MoeModelConfig TinyModel(int experts) {
  MoeModelConfig m;
  m.name = "tiny";
  m.num_experts = experts;
  m.hidden = 64;
  m.intermediate = 128;
  m.top_k = 2;
  return m;
}

EngineConfig BaseEngine(const MoeModelConfig& model) {
  EngineConfig cfg;
  cfg.threads = 2;
  cfg.top_k = model.top_k;
  cfg.activation = model.activation;
  return cfg;
}

std::vector<Workload> Build() {
  std::vector<Workload> all;

  // Long decodes on tiny dims: per-sequence prefix attention dominates.
  Workload decode;
  decode.name = "decode_long";
  decode.model = TinyModel(4);
  decode.layers = 1;
  decode.engine = BaseEngine(decode.model);
  // Pool inline here and on chat_poisson: with steps of a few ms, waiting on
  // two woken workers made the figures follow the host's steal time
  // (README, "What the host does to the figures").
  decode.engine.threads = 1;
  decode.prompt_lens = Spread(24, 16, 32);
  decode.decode_lens = Spread(24, 128, 192);
  // The first eight start four steps apart; each later one as soon as a
  // session finishes.
  for (int i = 0; i < 24; ++i) {
    decode.arrival_steps.push_back(4 * std::min(i, 7));
  }
  decode.concurrency = 8;
  decode.setup_reps = 31;
  all.push_back(decode);

  // Short prefills through DeepSeek-MoE routing: router, expert pool, SSMM.
  Workload prefill;
  prefill.name = "prefill_moe";
  prefill.model = samoyeds::ModelByName("DeepSeek-MoE");
  prefill.model.hidden = 256;
  prefill.model.intermediate = 1024;
  prefill.layers = 1;
  prefill.engine = BaseEngine(prefill.model);
  prefill.prompt_lens = Spread(32, 16, 64);
  prefill.decode_lens = std::vector<int64_t>(32, 1);
  for (int i = 0; i < 32; ++i) {
    prefill.arrival_steps.push_back(i / 4);
  }
  prefill.setup_reps = 5;
  all.push_back(prefill);

  // Poisson chat through the AsyncServer: ingress, scheduler, prefix cache.
  Workload chat;
  chat.name = "chat_poisson";
  chat.model = TinyModel(8);
  chat.layers = 2;
  chat.engine = BaseEngine(chat.model);
  chat.engine.threads = 1;
  chat.engine.prefix_cache = true;
  chat.engine.scheduler.chunk_tokens = 32;
  chat.engine.scheduler.max_pages = 1024;
  chat.async_server = true;
  chat.prompt_lens = Spread(50, 8, 24);
  chat.decode_lens = Spread(50, 8, 24);
  chat.arrivals_per_step = 0.1;
  chat.shared_prefix_rows = 64;
  chat.shared_every = 4;
  chat.setup_reps = 31;
  all.push_back(chat);

  return all;
}

const std::vector<Workload>& All() {
  static const std::vector<Workload> all = Build();
  return all;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : All()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : All()) {
    names.push_back(w.name);
  }
  return names;
}

}  // namespace servebench
