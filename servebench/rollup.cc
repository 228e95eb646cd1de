// Rolls a Tracer::Snapshot() up into per-step phase self times, expert-tile
// time and attention-slice times.

#include <algorithm>
#include <cstring>

#include "servebench/bench.h"

namespace servebench {
namespace {

using samoyeds::obs::EventType;
using samoyeds::obs::TraceEvent;
using samoyeds::obs::TraceThread;

struct Span {
  const char* category;
  const char* name;
  int64_t begin_ns;
  int64_t end_ns;
  int64_t value;
  int64_t child_ns = 0;
  int parent = -1;

  double dur_ms() const { return static_cast<double>(end_ns - begin_ns) * 1e-6; }
  double self_ms() const { return static_cast<double>(end_ns - begin_ns - child_ns) * 1e-6; }
  bool Is(const char* c, const char* n) const {
    return std::strcmp(category, c) == 0 && std::strcmp(name, n) == 0;
  }
};

// Matches Begin/End pairs of one thread. A span left open at the end of the
// capture (none is, between rounds) is dropped.
std::vector<Span> Spans(const TraceThread& thread) {
  std::vector<Span> spans;
  std::vector<int> open;
  for (const TraceEvent& ev : thread.events) {
    if (ev.type == EventType::kBegin) {
      Span s{ev.category, ev.name, ev.ts_ns, ev.ts_ns, ev.value};
      s.parent = open.empty() ? -1 : open.back();
      open.push_back(static_cast<int>(spans.size()));
      spans.push_back(s);
    } else if (ev.type == EventType::kEnd && !open.empty()) {
      Span& s = spans[static_cast<size_t>(open.back())];
      open.pop_back();
      s.end_ns = ev.ts_ns;
      if (s.parent >= 0) {
        spans[static_cast<size_t>(s.parent)].child_ns += s.end_ns - s.begin_ns;
      }
    }
  }
  return spans;
}

}  // namespace

RoundTrace RollUp(const std::vector<TraceThread>& threads) {
  RoundTrace out;
  std::vector<std::vector<Span>> per_thread;
  for (const TraceThread& t : threads) {
    out.dropped_events += t.dropped;
    per_thread.push_back(Spans(t));
    for (const TraceEvent& ev : t.events) {
      if (ev.type == EventType::kAsyncInstant && std::strcmp(ev.category, "bench") == 0 &&
          std::strcmp(ev.name, "submitted") == 0) {
        out.submitted_ns[ev.id] = ev.ts_ns;
      }
    }
  }

  // Engine-thread spans, attributed to the step that encloses them.
  for (const std::vector<Span>& spans : per_thread) {
    std::vector<int> step_of(spans.size(), -1);  // index into out.steps
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.Is("engine", "step") && s.parent < 0) {
        StepTrace st;
        st.step = s.value;
        st.begin_ns = s.begin_ns;
        st.end_ns = s.end_ns;
        st.step_ms = s.dur_ms();
        step_of[i] = static_cast<int>(out.steps.size());
        out.steps.push_back(st);
        continue;
      }
      if (s.parent < 0 || step_of[static_cast<size_t>(s.parent)] < 0) {
        continue;
      }
      step_of[i] = step_of[static_cast<size_t>(s.parent)];
      StepTrace& st = out.steps[static_cast<size_t>(step_of[i])];
      const Span& parent = spans[static_cast<size_t>(s.parent)];
      if (parent.Is("engine", "step")) {
        if (s.Is("engine", "forward")) {
          st.forward_ms += s.dur_ms();
        } else {
          st.phases[s.name] += s.self_ms();
        }
      } else if (s.Is("engine", "attn")) {
        st.attn_ms += s.dur_ms();
      } else if (s.Is("engine", "moe")) {
        st.moe_ms += s.dur_ms();
        st.moe_self_ms += s.self_ms();
      } else if (s.Is("pool", "dispatch")) {
        st.dispatch_ms += s.dur_ms();
      } else if (s.Is("pool", "barrier")) {
        st.barrier_ms += s.dur_ms();
      } else if (s.Is("pool", "fold")) {
        st.fold_ms += s.dur_ms();
      }
    }
  }
  std::sort(out.steps.begin(), out.steps.end(),
            [](const StepTrace& a, const StepTrace& b) { return a.begin_ns < b.begin_ns; });

  // Pool-worker spans: tiles are charged to the step whose window holds them.
  for (const std::vector<Span>& spans : per_thread) {
    for (const Span& s : spans) {
      if (s.Is("attn", "slice")) {
        out.slices.push_back(SliceTrace{s.value, s.begin_ns, s.dur_ms() * 1e3});
        continue;
      }
      if (!s.Is("expert", "tile") && !s.Is("expert", "shared_tile")) {
        continue;
      }
      auto it = std::upper_bound(
          out.steps.begin(), out.steps.end(), s.begin_ns,
          [](int64_t ts, const StepTrace& st) { return ts < st.begin_ns; });
      if (it == out.steps.begin()) {
        continue;
      }
      --it;
      if (s.begin_ns <= it->end_ns) {
        it->tile_ms += s.dur_ms();
        ++it->tiles;
      }
    }
  }
  std::sort(out.slices.begin(), out.slices.end(),
            [](const SliceTrace& a, const SliceTrace& b) { return a.begin_ns < b.begin_ns; });
  return out;
}

}  // namespace servebench
