// Per-layer time ledger built from the program's own flight recorder.
//
// The service journals a sampled query as a kQuery span plus its phase
// spans (kCacheLookup, kEval, kFold), all on the querying thread's ring and
// all recorded before the kQuery span closes. Draining periodically and
// walking each ring in history order therefore attributes every phase span
// to the query that follows it, and gaps in a ring's history index count
// exactly the events lost to ring wraps. Each client thread marks its ring
// with a kMark event naming the client, so query spans can be matched with
// the client's own span around the call that contains them.
#ifndef ECLARITY_PERFBENCH_LEDGER_H_
#define ECLARITY_PERFBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "perfbench/stats.h"
#include "src/obs/journal.h"

namespace perfbench {

// One sampled query span and its phase children.
struct QueryRecord {
  uint64_t t_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t cache_ns = 0;
  uint64_t eval_ns = 0;
  uint64_t fold_ns = 0;
};

struct JournalLedger {
  LogHistogram query_self_ns;    // query span minus its phase children
  LogHistogram cache_lookup_ns;
  LogHistogram eval_ns;
  LogHistogram fold_ns;
  uint64_t outcomes = 0;         // sum of kEval outcome counts
  uint64_t atoms = 0;            // sum of kFold atom counts
  std::vector<double> respecialize_ms;
  uint64_t dropped = 0;          // events lost between drains
  // Query records of each client ring, in time order.
  std::map<uint32_t, std::vector<QueryRecord>> client_queries;
};

// Journals the mark that ties the calling thread's ring to `client`.
void MarkClientRing(uint32_t client);

class JournalCollector {
 public:
  // Marks every event already resident as seen, so only later events count.
  JournalCollector();
  // Drains the global journal and consumes the events not seen yet. With
  // `final` set (every recording thread has stopped), a gap in a ring's
  // history is a loss at once rather than possibly a slot read mid-write.
  void Poll(bool final = false);
  const JournalLedger& ledger() const { return ledger_; }

 private:
  struct RingState {
    bool any = false;
    uint64_t last = 0;  // highest history index consumed
    QueryRecord pending;  // phase children of the query in progress
    bool broken = false;  // a gap cut the current query's children
    int64_t client = -1;
  };
  void Consume(RingState& ring, const eclarity::JournalEvent& e);

  std::map<uint32_t, RingState> rings_;
  JournalLedger ledger_;
};

// The client's span around one service call.
struct CallSpan {
  uint64_t t0 = 0;
  uint64_t t1 = 0;
};

// Layer self times summed over the client call spans that contain at least
// one sampled query span. Within those calls the layers add up exactly:
// call = svc self + cache + eval + fold + unattributed, where unattributed
// is the part of the call no query span of the service covers.
struct LedgerTotals {
  uint64_t calls = 0;
  double call_ns = 0.0;
  double svc_self_ns = 0.0;
  double cache_ns = 0.0;
  double eval_ns = 0.0;
  double fold_ns = 0.0;
  double unattributed_ns = 0.0;
};

// Matches `queries` (one client's ring, time-ordered) with that client's
// time-ordered call spans and adds the matched calls to `totals`.
void Reconcile(const std::vector<CallSpan>& spans,
               const std::vector<QueryRecord>& queries, LedgerTotals& totals);

}  // namespace perfbench

#endif  // ECLARITY_PERFBENCH_LEDGER_H_
