#include "net/transport.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <thread>

#include "util/logging.h"
#include "util/stopwatch.h"

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

/// One site's reassembled view of a single attempt: the inbox deduplicated
/// by sequence number and restored to sequence order (the done marker still
/// in place), with the done-marker completeness check applied.
struct ReassembledAttempt {
  bool all_arrived = false;
  double last_arrival = 0.0;
  std::vector<DeliveredMessage> inbox;
};

ReassembledAttempt ReassembleSiteAttempt(const FaultPlan& plan, int site,
                                         uint32_t stage,
                                         std::vector<DeliveredMessage> inbox) {
  ReassembledAttempt out;
  if (plan.reorder) {
    std::sort(inbox.begin(), inbox.end(),
              [&](const DeliveredMessage& a, const DeliveredMessage& b) {
                return plan.ReorderKey(site, stage, a.msg.attempt, a.msg.seq) <
                       plan.ReorderKey(site, stage, b.msg.attempt, b.msg.seq);
              });
  }
  // Deduplicate by sequence number and restore sequence order — this is
  // what makes duplication and reordering invisible to the pipeline.
  std::sort(inbox.begin(), inbox.end(),
            [](const DeliveredMessage& a, const DeliveredMessage& b) {
              return a.msg.seq < b.msg.seq;
            });
  inbox.erase(std::unique(inbox.begin(), inbox.end(),
                          [](const DeliveredMessage& a,
                             const DeliveredMessage& b) {
                            return a.msg.seq == b.msg.seq;
                          }),
              inbox.end());

  uint32_t expected = 0;
  bool have_done = false;
  for (const DeliveredMessage& d : inbox) {
    out.last_arrival = std::max(out.last_arrival, d.arrival_ms);
    if (d.msg.type == MessageType::kStageDone) {
      auto count = DecodeDoneMarker(d.msg.payload);
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
    for (const DeliveredMessage& d : inbox) {
      if (d.msg.type != MessageType::kStageDone && d.msg.seq < expected) {
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

std::vector<DeliveredMessage> InProcessTransport::ShipAttempt(
    int site, uint32_t stage, uint32_t attempt,
    const std::vector<WireMessage>& buffer,
    ShipmentLedger::StageId ledger_stage, double base_offset_ms) {
  std::vector<DeliveredMessage> arrived;
  for (const WireMessage& stamped : buffer) {
    WireMessage msg = stamped;
    msg.attempt = attempt;
    // Bytes hit the wire whether or not the message survives the trip, and
    // a duplicated message is shipped twice — the ledger counts both, since
    // the paper's shipment metric measures traffic, not goodput.
    const bool dup = plan_.Duplicate(site, stage, attempt, msg.seq, false);
    ledger_->Add(ledger_stage, msg.WireSize() * (dup ? 2 : 1));
    if (plan_.Drop(site, stage, attempt, msg.seq, false)) continue;
    DeliveredMessage delivered;
    delivered.arrival_ms =
        base_offset_ms + plan_.LatencyMs(site, stage, attempt, msg.seq, false);
    delivered.msg = std::move(msg);
    if (dup) arrived.push_back(delivered);
    arrived.push_back(std::move(delivered));
  }
  return arrived;
}

StageResult InProcessTransport::StageStream(
    uint32_t stage, ShipmentLedger::StageId ledger_stage,
    const StagePolicy& policy,
    const std::function<std::vector<WireMessage>(int site)>& site_fn,
    const SiteBatchConsumer& on_site) {
  GSTORED_CHECK_GE(policy.max_attempts, 1);
  StageResult result;
  result.sites.assign(num_sites_, SiteStageReport{});
  std::mutex consume_mu;

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

  // One thread per site runs that site's entire attempt loop — deadlines,
  // backoff and hedging fire per site, so a straggler never stalls delivery
  // of the sites that already finished. All deadline math is virtual and
  // keyed off the plan, hence byte-identical replay.
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
            plan_, site, stage,
            ShipAttempt(site, stage, static_cast<uint32_t>(attempt), buffer,
                        ledger_stage, backoff));
        if (r.all_arrived && r.last_arrival <= policy.deadline_ms + backoff) {
          report.ok = true;
          // Arrival times are offset by the backoff, which queue_wait_ms
          // already counted for every blown attempt.
          report.queue_wait_ms += r.last_arrival - backoff;
          for (DeliveredMessage& d : r.inbox) {
            if (d.msg.type != MessageType::kStageDone) {
              delivered.push_back(std::move(d.msg));
            }
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

    if (report.ok) {
      std::lock_guard<std::mutex> lock(consume_mu);
      on_site(site, std::move(delivered));
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(num_sites_);
  for (int site = 0; site < num_sites_; ++site) {
    threads.emplace_back(run_site, site);
  }
  for (std::thread& t : threads) t.join();
  return result;
}

std::vector<bool> InProcessTransport::BroadcastReliable(
    uint32_t stage, ShipmentLedger::StageId ledger_stage,
    const StagePolicy& policy,
    const std::function<WireMessage(int site)>& make_msg) {
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
      // The broadcast's header is fixed-size, so the message as built is
      // exactly what the wire would carry; a duplicate ships twice.
      const uint32_t a = static_cast<uint32_t>(attempt);
      const bool dup = plan_.Duplicate(site, stage, a, 0, /*to_site=*/true);
      ledger_->Add(ledger_stage, make_msg(site).WireSize() * (dup ? 2 : 1));
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
