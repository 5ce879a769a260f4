#include "src/obs/critical_path.h"

#include <algorithm>
#include <cstddef>
#include <unordered_map>

namespace linefs::obs {
namespace {

// A span clipped to its operation's root interval, with tree depth attached.
struct ClippedSpan {
  const TraceEvent* ev = nullptr;
  int depth = 0;
  sim::Time begin = 0;
  sim::Time end = 0;
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  if (idx >= sorted.size()) {
    idx = sorted.size() - 1;
  }
  return sorted[idx];
}

}  // namespace

std::string CriticalPathAnalyzer::CanonicalStage(std::string_view raw) {
  // Host<->NIC / replica-local data movement.
  if (raw == "fetch" || raw == "copy" || raw == "repl_copy") {
    return "copy";
  }
  if (raw == "validate") {
    return "validate";
  }
  if (raw == "compress") {
    return "compress";
  }
  if (raw == "checksum") {
    return "checksum";
  }
  // Anything that puts bytes on (or takes them off) the fabric.
  if (raw == "transfer" || raw == "rpc" || raw == "repl_recv" || raw == "forward" ||
      raw == "retransmit" || raw == "replicate") {
    return "replicate-net";
  }
  // Making data visible/durable in the shared area.
  if (raw == "publish" || raw == "digest") {
    return "persist";
  }
  if (raw == "ack") {
    return "ack";
  }
  // Container spans: the operation existing but no stage doing work.
  if (raw == "fsync" || raw == "fsync_wait" || raw == "publish_kick" ||
      raw == "handoff_flush") {
    return "wait";
  }
  return "other";
}

std::vector<OpBreakdown> CriticalPathAnalyzer::Operations(std::string_view root_stage) const {
  // Group retained events by trace. Pointers into the ring are stable for the
  // duration of the analysis (nothing records concurrently in the sim).
  std::map<uint64_t, std::vector<const TraceEvent*>> by_trace;
  buffer_->ForEach([&](const TraceEvent& ev) {
    if (ev.trace_id != 0) {
      by_trace[ev.trace_id].push_back(&ev);
    }
  });

  std::vector<OpBreakdown> ops;
  ops.reserve(by_trace.size());
  for (const auto& [trace_id, events] : by_trace) {
    std::unordered_map<uint64_t, const TraceEvent*> by_span;
    by_span.reserve(events.size());
    for (const TraceEvent* ev : events) {
      by_span.emplace(ev->span_id, ev);
    }

    // Root: a span with no parent in this trace. The ring may have dropped
    // the true root, leaving several orphans; the earliest one wins and the
    // rest clip into it like ordinary children.
    const TraceEvent* root = nullptr;
    for (const TraceEvent* ev : events) {
      if (ev->parent_span != 0 && by_span.count(ev->parent_span) != 0) {
        continue;
      }
      if (root == nullptr || ev->begin < root->begin ||
          (ev->begin == root->begin && ev->span_id < root->span_id)) {
        root = ev;
      }
    }
    if (root == nullptr || (!root_stage.empty() && root->stage != root_stage)) {
      continue;
    }

    OpBreakdown op;
    op.trace_id = trace_id;
    op.root_component = root->component;
    op.root_stage = root->stage;
    op.client = root->client;
    op.begin = root->begin;
    op.end = root->end;
    op.span_count = events.size();
    for (const TraceEvent* ev : events) {
      op.nodes.insert(ev->node);
    }
    if (op.end < op.begin) {
      op.end = op.begin;
    }

    if (events.size() > kMaxSpansPerTrace) {
      // Too large for the quadratic sweep: keep the op visible but mark the
      // whole interval unattributed.
      op.stage_ns["other"] = op.duration();
      ops.push_back(std::move(op));
      continue;
    }

    // Depth of every span (root = 0); spans whose parent chain dangles attach
    // under the root at depth 1.
    std::unordered_map<uint64_t, int> depth;
    depth[root->span_id] = 0;
    for (const TraceEvent* ev : events) {
      // Walk up to a span with known depth (or a dangling parent link).
      std::vector<const TraceEvent*> chain;
      const TraceEvent* cur = ev;
      while (depth.count(cur->span_id) == 0) {
        chain.push_back(cur);
        auto it = by_span.find(cur->parent_span);
        if (cur->parent_span == 0 || it == by_span.end() || it->second == cur ||
            chain.size() > events.size()) {
          break;
        }
        cur = it->second;
      }
      int d;
      if (depth.count(cur->span_id) != 0) {
        d = depth[cur->span_id];
      } else {
        // Dangling chain (its true ancestors were dropped by the ring): the
        // topmost unresolved span attaches under the root.
        d = 1;
        depth[cur->span_id] = d;
        chain.pop_back();
      }
      // Walk back down, one level per link.
      for (size_t i = chain.size(); i-- > 0;) {
        depth[chain[i]->span_id] = ++d;
      }
    }

    // Clip to the root interval.
    std::vector<ClippedSpan> spans;
    spans.reserve(events.size());
    for (const TraceEvent* ev : events) {
      ClippedSpan cs;
      cs.ev = ev;
      cs.depth = depth[ev->span_id];
      cs.begin = std::max(ev->begin, op.begin);
      cs.end = std::min(ev->end, op.end);
      if (cs.end > cs.begin || ev == root) {
        spans.push_back(cs);
      }
    }

    // Boundary sweep: attribute each elementary interval to the deepest
    // active span (ties: latest begin, then highest span id).
    std::vector<sim::Time> bounds;
    bounds.reserve(spans.size() * 2);
    for (const ClippedSpan& cs : spans) {
      bounds.push_back(cs.begin);
      bounds.push_back(cs.end);
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

    for (size_t i = 0; i + 1 < bounds.size(); ++i) {
      sim::Time a = bounds[i];
      sim::Time b = bounds[i + 1];
      const ClippedSpan* best = nullptr;
      for (const ClippedSpan& cs : spans) {
        if (cs.begin > a || cs.end < b) {
          continue;
        }
        if (best == nullptr || cs.depth > best->depth ||
            (cs.depth == best->depth &&
             (cs.begin > best->begin ||
              (cs.begin == best->begin && cs.ev->span_id > best->ev->span_id)))) {
          best = &cs;
        }
      }
      if (best == nullptr) {
        continue;  // Gap outside every span (cannot happen inside the root).
      }
      bool is_root = best->ev == root;
      std::string stage = is_root ? "wait" : CanonicalStage(best->ev->stage);
      op.stage_ns[stage] += b - a;
      if (!op.segments.empty() && op.segments.back().end == a &&
          op.segments.back().stage == stage &&
          op.segments.back().raw_stage == best->ev->stage &&
          op.segments.back().node == best->ev->node) {
        op.segments.back().end = b;
      } else {
        CriticalSegment seg;
        seg.stage = std::move(stage);
        seg.raw_stage = best->ev->stage;
        seg.node = best->ev->node;
        seg.begin = a;
        seg.end = b;
        op.segments.push_back(std::move(seg));
      }
    }
    ops.push_back(std::move(op));
  }

  std::sort(ops.begin(), ops.end(), [](const OpBreakdown& a, const OpBreakdown& b) {
    return a.begin != b.begin ? a.begin < b.begin : a.trace_id < b.trace_id;
  });
  return ops;
}

std::map<std::string, sim::Time> CriticalPathAnalyzer::StageTable(
    const std::vector<OpBreakdown>& ops) {
  std::map<std::string, sim::Time> table;
  for (const OpBreakdown& op : ops) {
    for (const auto& [stage, ns] : op.stage_ns) {
      table[stage] += ns;
    }
  }
  return table;
}

JsonValue CriticalPathAnalyzer::ReportJson(size_t max_exemplars) const {
  std::vector<OpBreakdown> ops = Operations();

  std::map<std::string, std::vector<const OpBreakdown*>> groups;
  for (const OpBreakdown& op : ops) {
    groups[op.root_stage].push_back(&op);
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("total_ops", JsonValue(static_cast<double>(ops.size())));
  JsonValue groups_json = JsonValue::Object();
  for (const auto& [stage_name, group] : groups) {
    std::vector<double> durations;
    durations.reserve(group.size());
    double total_e2e_us = 0.0;
    for (const OpBreakdown* op : group) {
      double us = sim::ToMicros(op->duration());
      durations.push_back(us);
      total_e2e_us += us;
    }
    std::sort(durations.begin(), durations.end());

    JsonValue g = JsonValue::Object();
    g.Set("ops", JsonValue(static_cast<double>(group.size())));
    JsonValue e2e = JsonValue::Object();
    e2e.Set("mean_us", JsonValue(durations.empty() ? 0.0
                                                   : total_e2e_us /
                                                         static_cast<double>(durations.size())));
    e2e.Set("p50_us", JsonValue(Percentile(durations, 0.50)));
    e2e.Set("p99_us", JsonValue(Percentile(durations, 0.99)));
    e2e.Set("max_us", JsonValue(durations.empty() ? 0.0 : durations.back()));
    e2e.Set("total_us", JsonValue(total_e2e_us));
    g.Set("e2e", std::move(e2e));

    std::map<std::string, sim::Time> table;
    for (const OpBreakdown* op : group) {
      for (const auto& [stage, ns] : op->stage_ns) {
        table[stage] += ns;
      }
    }
    JsonValue stages = JsonValue::Object();
    double attributed_us = 0.0;
    for (const auto& [stage, ns] : table) {
      JsonValue s = JsonValue::Object();
      double us = sim::ToMicros(ns);
      attributed_us += us;
      s.Set("total_us", JsonValue(us));
      s.Set("pct", JsonValue(total_e2e_us > 0.0 ? 100.0 * us / total_e2e_us : 0.0));
      stages.Set(stage, std::move(s));
    }
    g.Set("stages", std::move(stages));
    // By construction the sweep partitions each root interval, so this equals
    // e2e.total_us (modulo oversized traces binned as "other").
    g.Set("attributed_us", JsonValue(attributed_us));

    // Slowest operations, segment by segment.
    std::vector<const OpBreakdown*> slowest(group.begin(), group.end());
    std::sort(slowest.begin(), slowest.end(), [](const OpBreakdown* a, const OpBreakdown* b) {
      return a->duration() != b->duration() ? a->duration() > b->duration()
                                            : a->trace_id < b->trace_id;
    });
    if (slowest.size() > max_exemplars) {
      slowest.resize(max_exemplars);
    }
    JsonValue exemplars = JsonValue::Array();
    for (const OpBreakdown* op : slowest) {
      JsonValue ex = JsonValue::Object();
      ex.Set("trace_id", JsonValue(static_cast<double>(op->trace_id)));
      ex.Set("root", JsonValue(op->root_component));
      ex.Set("client", JsonValue(op->client));
      ex.Set("begin_us", JsonValue(sim::ToMicros(op->begin)));
      ex.Set("duration_us", JsonValue(sim::ToMicros(op->duration())));
      ex.Set("span_count", JsonValue(static_cast<double>(op->span_count)));
      JsonValue nodes = JsonValue::Array();
      for (int node : op->nodes) {
        nodes.Append(JsonValue(node));
      }
      ex.Set("nodes", std::move(nodes));
      constexpr size_t kMaxSegments = 64;
      JsonValue segs = JsonValue::Array();
      for (size_t i = 0; i < op->segments.size() && i < kMaxSegments; ++i) {
        const CriticalSegment& seg = op->segments[i];
        JsonValue sj = JsonValue::Object();
        sj.Set("stage", JsonValue(seg.stage));
        sj.Set("raw", JsonValue(seg.raw_stage));
        sj.Set("node", JsonValue(seg.node));
        sj.Set("begin_us", JsonValue(sim::ToMicros(seg.begin)));
        sj.Set("dur_us", JsonValue(sim::ToMicros(seg.duration())));
        segs.Append(std::move(sj));
      }
      ex.Set("segments", std::move(segs));
      if (op->segments.size() > kMaxSegments) {
        ex.Set("segments_truncated", JsonValue(true));
      }
      exemplars.Append(std::move(ex));
    }
    g.Set("exemplars", std::move(exemplars));
    groups_json.Set(stage_name, std::move(g));
  }
  doc.Set("groups", std::move(groups_json));
  return doc;
}

}  // namespace linefs::obs
