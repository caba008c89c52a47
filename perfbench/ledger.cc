#include "perfbench/ledger.h"

#include "src/obs/journal.h"

namespace perfbench {

using eclarity::Journal;
using eclarity::JournalEvent;
using eclarity::JournalEventKind;

namespace {
constexpr uint64_t kClientMark = 0x9E9F;  // kMark `b` word of client marks
}  // namespace

void MarkClientRing(uint32_t client) {
  Journal::Global().Record(JournalEventKind::kMark, client, kClientMark);
}

JournalCollector::JournalCollector() {
  for (const JournalEvent& e : Journal::Global().Drain()) {
    RingState& ring = rings_[e.thread];
    ring.any = true;
    if (e.index > ring.last) {
      ring.last = e.index;
    }
    if (e.kind == JournalEventKind::kMark && e.b == kClientMark) {
      ring.client = static_cast<int64_t>(e.a);  // clients mark before go
    }
  }
}

void JournalCollector::Poll(bool final) {
  const std::vector<JournalEvent> events = Journal::Global().Drain();
  // Drain orders events by (ring, index). Walk one ring at a time.
  size_t begin = 0;
  while (begin < events.size()) {
    size_t end = begin;
    while (end < events.size() && events[end].thread == events[begin].thread) {
      ++end;
    }
    const uint64_t newest = events[end - 1].index;
    RingState& ring = rings_[events[begin].thread];
    for (size_t i = begin; i < end; ++i) {
      const JournalEvent& e = events[i];
      if (ring.any && e.index <= ring.last) {
        continue;  // consumed by an earlier drain
      }
      const uint64_t expected = ring.any ? ring.last + 1 : 0;
      if (e.index != expected) {
        // Drain skips a slot it reads while the writer is mid-record; that
        // event shows up in the next drain. Only an index the ring has
        // since lapped is lost.
        if (!final && newest < expected + Journal::kRingCapacity) {
          break;
        }
        ledger_.dropped += e.index - expected;
        ring.pending = QueryRecord();
        ring.broken = true;
      }
      ring.any = true;
      ring.last = e.index;
      Consume(ring, e);
    }
    begin = end;
  }
}

void JournalCollector::Consume(RingState& ring, const JournalEvent& e) {
  switch (e.kind) {
    case JournalEventKind::kMark:
      if (e.b == kClientMark) {
        ring.client = static_cast<int64_t>(e.a);
      }
      break;
    case JournalEventKind::kCacheLookup:
      ledger_.cache_lookup_ns.Add(e.dur_ns);
      ring.pending.cache_ns += e.dur_ns;
      break;
    case JournalEventKind::kEval:
      ledger_.eval_ns.Add(e.dur_ns);
      ledger_.outcomes += e.a;
      ring.pending.eval_ns += e.dur_ns;
      break;
    case JournalEventKind::kFold:
      ledger_.fold_ns.Add(e.dur_ns);
      ledger_.atoms += e.a;
      ring.pending.fold_ns += e.dur_ns;
      break;
    case JournalEventKind::kQuery:
      if (!ring.broken) {
        QueryRecord rec = ring.pending;
        rec.t_ns = e.t_ns;
        rec.dur_ns = e.dur_ns;
        const uint64_t children = rec.cache_ns + rec.eval_ns + rec.fold_ns;
        ledger_.query_self_ns.Add(
            rec.dur_ns > children ? rec.dur_ns - children : 0);
        if (ring.client >= 0) {
          ledger_.client_queries[static_cast<uint32_t>(ring.client)]
              .push_back(rec);
        }
      }
      ring.pending = QueryRecord();
      ring.broken = false;
      break;
    case JournalEventKind::kRespecialize:
      ledger_.respecialize_ms.push_back(static_cast<double>(e.dur_ns) /
                                        1e6);
      break;
    default:
      break;
  }
}

void Reconcile(const std::vector<CallSpan>& spans,
               const std::vector<QueryRecord>& queries, LedgerTotals& totals) {
  size_t s = 0;
  size_t q = 0;
  while (s < spans.size() && q < queries.size()) {
    const CallSpan& span = spans[s];
    if (queries[q].t_ns < span.t0) {
      ++q;  // a query outside every recorded call span
      continue;
    }
    if (queries[q].t_ns >= span.t1) {
      ++s;
      continue;
    }
    double query_ns = 0.0;
    for (; q < queries.size() && queries[q].t_ns < span.t1; ++q) {
      const QueryRecord& r = queries[q];
      const double children =
          static_cast<double>(r.cache_ns + r.eval_ns + r.fold_ns);
      query_ns += static_cast<double>(r.dur_ns);
      totals.svc_self_ns += static_cast<double>(r.dur_ns) - children;
      totals.cache_ns += static_cast<double>(r.cache_ns);
      totals.eval_ns += static_cast<double>(r.eval_ns);
      totals.fold_ns += static_cast<double>(r.fold_ns);
    }
    const double call_ns = static_cast<double>(span.t1 - span.t0);
    ++totals.calls;
    totals.call_ns += call_ns;
    totals.unattributed_ns += call_ns - query_ns;
    ++s;
  }
}

}  // namespace perfbench
