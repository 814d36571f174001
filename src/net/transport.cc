#include "net/transport.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace gstored {

double StageResult::max_millis() const {
  double slowest = 0.0;
  for (const SiteStageReport& s : sites) {
    slowest = std::max(slowest, s.queue_wait_ms + s.exec_ms);
  }
  return slowest;
}

bool StageResult::complete() const {
  for (const SiteStageReport& s : sites) {
    if (!s.ok) return false;
  }
  return true;
}

size_t StageResult::total_retries() const {
  size_t retries = 0;
  for (const SiteStageReport& s : sites) {
    if (s.attempts > 1) retries += static_cast<size_t>(s.attempts - 1);
  }
  return retries;
}

size_t StageResult::hedged_sites() const {
  size_t n = 0;
  for (const SiteStageReport& s : sites) {
    if (s.hedged) ++n;
  }
  return n;
}

namespace {

/// One message of an attempt that reached the coordinator: its sequence
/// number, which indexes the site's send buffer, the attempt that shipped
/// it and its virtual arrival time (injected latency plus accumulated
/// backoff; nothing actually sleeps). A duplicated send arrives twice.
struct Delivery {
  uint32_t seq = 0;
  uint32_t attempt = 0;
  double arrival_ms = 0.0;
};

/// Ships one attempt of a site's stamped send buffer (payloads + done
/// marker) and returns the deliveries that arrive: send-side faults drop,
/// duplicate and delay them, and `base_offset_ms` shifts arrival times by
/// the accumulated backoff. Nothing is copied.
std::vector<Delivery> ShipAttempt(const FaultPlan& plan, ShipmentLedger& ledger,
                                  int site, uint32_t stage, uint32_t attempt,
                                  const std::vector<WireMessage>& buffer,
                                  ShipmentLedger::StageId ledger_stage,
                                  double base_offset_ms) {
  std::vector<Delivery> arrived;
  for (uint32_t seq = 0; seq < buffer.size(); ++seq) {
    // Bytes hit the wire whether or not the message survives the trip, and
    // a duplicated message is shipped twice — the ledger counts both, since
    // the paper's shipment metric measures traffic, not goodput.
    const bool dup = plan.Duplicate(site, stage, attempt, seq, false);
    ledger.Add(ledger_stage, buffer[seq].WireSize() * (dup ? 2 : 1));
    if (plan.Drop(site, stage, attempt, seq, false)) continue;
    const Delivery delivered{
        seq, attempt,
        base_offset_ms + plan.LatencyMs(site, stage, attempt, seq, false)};
    arrived.push_back(delivered);
    if (dup) arrived.push_back(delivered);
  }
  return arrived;
}

/// One site's reassembled view of a single attempt: the deliveries
/// deduplicated by sequence number and restored to sequence order (the done
/// marker still in place), with the done-marker completeness check applied.
struct ReassembledAttempt {
  bool all_arrived = false;
  double last_arrival = 0.0;
  std::vector<Delivery> inbox;
};

ReassembledAttempt ReassembleSiteAttempt(const FaultPlan& plan, int site,
                                         uint32_t stage,
                                         const std::vector<WireMessage>& buffer,
                                         std::vector<Delivery> inbox) {
  ReassembledAttempt out;
  if (plan.reorder) {
    std::sort(inbox.begin(), inbox.end(),
              [&](const Delivery& a, const Delivery& b) {
                return plan.ReorderKey(site, stage, a.attempt, a.seq) <
                       plan.ReorderKey(site, stage, b.attempt, b.seq);
              });
  }
  // Deduplicate by sequence number and restore sequence order — this is
  // what makes duplication and reordering invisible to the pipeline.
  std::sort(inbox.begin(), inbox.end(),
            [](const Delivery& a, const Delivery& b) { return a.seq < b.seq; });
  inbox.erase(std::unique(inbox.begin(), inbox.end(),
                          [](const Delivery& a, const Delivery& b) {
                            return a.seq == b.seq;
                          }),
              inbox.end());

  uint32_t expected = 0;
  bool have_done = false;
  for (const Delivery& d : inbox) {
    out.last_arrival = std::max(out.last_arrival, d.arrival_ms);
    const WireMessage& msg = buffer[d.seq];
    if (msg.type == MessageType::kStageDone) {
      auto count = DecodeDoneMarker(msg.payload);
      if (count.ok()) {
        have_done = true;
        expected = count.value();
      }
    }
  }
  out.all_arrived = have_done;
  if (have_done) {
    // Payload seqs must be exactly 0..expected-1 (the done marker itself
    // is seq == expected).
    uint32_t payload_count = 0;
    for (const Delivery& d : inbox) {
      if (buffer[d.seq].type != MessageType::kStageDone && d.seq < expected) {
        ++payload_count;
      }
    }
    out.all_arrived = payload_count == expected;
  }
  out.inbox = std::move(inbox);
  return out;
}

}  // namespace

InProcessTransport::InProcessTransport(int num_sites, ShipmentLedger* ledger,
                                       FaultPlan plan, uint32_t session_id)
    : num_sites_(num_sites),
      ledger_(ledger),
      plan_(std::move(plan)),
      session_id_(session_id) {
  GSTORED_CHECK_GT(num_sites, 0);
  GSTORED_CHECK(ledger != nullptr);
}

StageResult InProcessTransport::StageStream(
    uint32_t stage, ShipmentLedger::StageId ledger_stage,
    const StagePolicy& policy,
    const std::function<std::vector<WireMessage>(int site)>& site_fn,
    const SiteBatchConsumer& on_site, ThreadPool* pool) {
  GSTORED_CHECK_GE(policy.max_attempts, 1);
  StageResult result;
  result.sites.assign(num_sites_, SiteStageReport{});

  // Runs the site function once and stamps its send buffer. The
  // end-of-stage marker carries the payload count, so the coordinator can
  // tell "everything arrived" from "some messages are still missing" under
  // drops and reordering; it rides the same faulty channel.
  auto encode_site = [&](int site) {
    Stopwatch watch;
    std::vector<WireMessage> msgs = site_fn(site);
    result.sites[site].exec_ms = watch.ElapsedMillis();
    msgs.push_back(
        MakeMessage(MessageType::kStageDone,
                    EncodeDoneMarker(static_cast<uint32_t>(msgs.size()))));
    for (uint32_t seq = 0; seq < msgs.size(); ++seq) {
      msgs[seq].sender = site;
      msgs[seq].session = session_id_;
      msgs[seq].stage = stage;
      msgs[seq].seq = seq;
    }
    return msgs;
  };

  // One site's entire attempt loop — deadlines, backoff and hedging fire
  // per site, so a straggler never stalls delivery of the sites that
  // already finished. All deadline math is virtual and keyed off the plan,
  // hence byte-identical replay on whichever thread runs the site.
  auto run_site = [&](int site) {
    SiteStageReport& report = result.sites[site];
    std::vector<WireMessage> buffer;  // stamped payloads + done marker
    std::vector<WireMessage> delivered;
    if (plan_.SiteDead(site, stage)) {
      report.crashed = true;
      report.attempts = 1;
    } else {
      buffer = encode_site(site);
      double backoff = 0.0;
      for (int attempt = 0; attempt < policy.max_attempts && !report.ok;
           ++attempt) {
        report.attempts = attempt + 1;
        ReassembledAttempt r = ReassembleSiteAttempt(
            plan_, site, stage, buffer,
            ShipAttempt(plan_, *ledger_, site, stage,
                        static_cast<uint32_t>(attempt), buffer, ledger_stage,
                        backoff));
        if (r.all_arrived && r.last_arrival <= policy.deadline_ms + backoff) {
          report.ok = true;
          // Arrival times are offset by the backoff, which queue_wait_ms
          // already counted for every blown attempt.
          report.queue_wait_ms += r.last_arrival - backoff;
          // No later attempt or hedge can need the buffer now, so the
          // payloads move out of it, stamped with the attempt that shipped
          // them.
          for (const Delivery& d : r.inbox) {
            WireMessage& msg = buffer[d.seq];
            if (msg.type == MessageType::kStageDone) continue;
            msg.attempt = d.attempt;
            delivered.push_back(std::move(msg));
          }
        } else {
          // Blown deadline: the coordinator waited the full window, then
          // backs off before redispatching.
          double next_backoff = policy.backoff_ms * std::ldexp(1.0, attempt);
          report.queue_wait_ms += policy.deadline_ms + next_backoff;
          backoff += policy.deadline_ms + next_backoff;
        }
      }
    }

    if (!report.ok && policy.hedge_local) {
      // Out of attempts: hedge against the coordinator-local fragment copy
      // by delivering the buffered payloads (done marker stripped). A
      // crashed site never ran its function, so it runs now.
      if (report.crashed) buffer = encode_site(site);
      buffer.pop_back();
      delivered = std::move(buffer);
      report.ok = true;
      report.hedged = true;
    }

    if (report.ok) on_site(site, std::move(delivered));
  };

  const size_t sites = static_cast<size_t>(num_sites_);
  ParallelFor(pool, sites, sites, [&](size_t site, size_t /*slot*/) {
    run_site(static_cast<int>(site));
  });
  return result;
}

std::vector<bool> InProcessTransport::BroadcastReliable(
    uint32_t stage, ShipmentLedger::StageId ledger_stage,
    const StagePolicy& policy,
    const std::function<const std::vector<uint8_t>&(int site)>& payload) {
  GSTORED_CHECK_GE(policy.max_attempts, 1);
  std::vector<bool> delivered(num_sites_, false);
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    bool all = true;
    for (int site = 0; site < num_sites_; ++site) {
      if (delivered[site]) continue;
      if (plan_.SiteDead(site, stage)) {
        all = false;
        continue;
      }
      // The broadcast's header is fixed-size, so header plus payload is
      // exactly what the wire would carry; a duplicate ships twice.
      const uint32_t a = static_cast<uint32_t>(attempt);
      const bool dup = plan_.Duplicate(site, stage, a, 0, /*to_site=*/true);
      const size_t wire_size = WireMessage::kHeaderBytes + payload(site).size();
      ledger_->Add(ledger_stage, wire_size * (dup ? 2 : 1));
      if (plan_.Drop(site, stage, a, 0, /*to_site=*/true) ||
          plan_.LatencyMs(site, stage, a, 0, /*to_site=*/true) >
              policy.deadline_ms) {
        all = false;
        continue;
      }
      delivered[site] = true;
    }
    if (all) break;
  }
  return delivered;
}

}  // namespace gstored
