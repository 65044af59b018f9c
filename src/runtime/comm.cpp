#include "runtime/comm.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/timer.hpp"
#include "obs/trace.hpp"

namespace aero {

namespace {

/// splitmix64: the standard seed-expansion mixer; full-period, well
/// distributed, and cheap enough for a per-message draw.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform [0, 1) from the top 53 bits of a hash.
double unit_interval(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double draw(std::uint64_t seed, std::uint64_t event, std::uint64_t salt) {
  return unit_interval(mix64(seed ^ mix64(event ^ (salt << 56))));
}

}  // namespace

bool FaultInjector::rank_dead(int rank) const {
  if (!cfg_.enabled || rank == 0) return false;
  return std::find(cfg_.dead_ranks.begin(), cfg_.dead_ranks.end(), rank) !=
         cfg_.dead_ranks.end();
}

FaultInjector::Action FaultInjector::next_action() {
  Action a;
  if (!cfg_.enabled) return a;
  const std::uint64_t e = event_.fetch_add(1, std::memory_order_relaxed);
  if (draw(cfg_.seed, e, 1) < cfg_.drop_rate) {
    a.drop = true;
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return a;
  }
  if (draw(cfg_.seed, e, 2) < cfg_.duplicate_rate) {
    a.duplicate = true;
    duplicated_.fetch_add(1, std::memory_order_relaxed);
  }
  if (draw(cfg_.seed, e, 3) < cfg_.corrupt_rate) {
    a.corrupt = true;
    a.salt = mix64(cfg_.seed ^ mix64(e ^ 0x5151ull));
    corrupted_.fetch_add(1, std::memory_order_relaxed);
  }
  if (draw(cfg_.seed, e, 4) < cfg_.delay_rate) {
    a.delay = cfg_.delay;
    delayed_.fetch_add(1, std::memory_order_relaxed);
  }
  return a;
}

bool FaultInjector::unit_should_fail(std::uint64_t unit_id) {
  if (!cfg_.enabled) return false;
  if (std::find(cfg_.fail_unit_ids.begin(), cfg_.fail_unit_ids.end(),
                unit_id) != cfg_.fail_unit_ids.end()) {
    unit_faults_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (cfg_.unit_failure_rate > 0.0) {
    const std::uint64_t e = event_.fetch_add(1, std::memory_order_relaxed);
    if (draw(cfg_.seed, e ^ unit_id, 5) < cfg_.unit_failure_rate) {
      unit_faults_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

std::size_t FaultInjector::crash_after(int rank) const {
  if (!cfg_.enabled || rank == 0) return 0;
  for (const auto& [r, n] : cfg_.crash_rank_after_units) {
    if (r == rank) return n;
  }
  return 0;
}

std::size_t FaultInjector::kill_mesher_after(int rank) const {
  if (!cfg_.enabled) return 0;
  for (const auto& [r, n] : cfg_.kill_mesher_after_units) {
    if (r == rank) return n;
  }
  return 0;
}

Communicator::Communicator(int nranks)
    : boxes_(static_cast<std::size_t>(nranks)) {
  if (nranks < 1) throw std::invalid_argument("need at least one rank");
}

void Communicator::promote_due(Mailbox& box,
                               std::chrono::steady_clock::time_point now) {
  if (box.delayed.empty()) return;
  auto it = box.delayed.begin();
  while (it != box.delayed.end()) {
    if (it->due <= now) {
      box.q.push_back(std::move(it->msg));
      it = box.delayed.erase(it);
    } else {
      ++it;
    }
  }
}

std::optional<Message> Communicator::pop_ready(Mailbox& box) {
  if (box.q.empty()) return std::nullopt;
  Message msg = std::move(box.q.front());
  box.q.pop_front();
  return msg;
}

void Communicator::deliver(int to, Message msg,
                           std::chrono::microseconds delay) {
  Mailbox& box = boxes_[static_cast<std::size_t>(to)];
  {
    MutexLock lock(box.m);
    if (delay.count() > 0) {
      box.delayed.push_back(Delayed{mono_now() + delay, std::move(msg)});
    } else {
      box.q.push_back(std::move(msg));
    }
  }
  box.cv.notify_one();
}

void Communicator::send(int from, int to, int tag,
                        std::vector<std::uint8_t> payload) {
  AERO_TRACE_SPAN("comm", "send");
  messages_.fetch_add(1, std::memory_order_relaxed);
  payload_bytes_.fetch_add(payload.size(), std::memory_order_relaxed);
  Message msg{tag, from, std::move(payload)};
  if (injector_ != nullptr && injector_->enabled()) {
    const FaultInjector::Action a = injector_->next_action();
    if (a.drop) {
      AERO_TRACE_INSTANT_ARG("comm", "injected_drop", tag);
      return;
    }
    if (a.corrupt && !msg.payload.empty()) {
      // Flip at least one bit of one deterministic byte.
      const std::size_t i = a.salt % msg.payload.size();
      msg.payload[i] ^= static_cast<std::uint8_t>(1 + ((a.salt >> 32) & 0x7f));
      AERO_TRACE_INSTANT_ARG("comm", "injected_corrupt", tag);
    }
    if (a.duplicate) {
      AERO_TRACE_INSTANT_ARG("comm", "injected_duplicate", tag);
      deliver(to, msg, a.delay);
    }
    deliver(to, std::move(msg), a.delay);
    return;
  }
  deliver(to, std::move(msg), std::chrono::microseconds{0});
}

Message Communicator::recv(int rank) {
  Mailbox& box = boxes_[static_cast<std::size_t>(rank)];
  UniqueLock lock(box.m);
  for (;;) {
    promote_due(box, mono_now());
    if (auto msg = pop_ready(box)) return std::move(*msg);
    if (box.delayed.empty()) {
      while (box.q.empty() && box.delayed.empty()) lock.wait(box.cv);
    } else {
      auto due = box.delayed.front().due;
      for (const Delayed& d : box.delayed) due = std::min(due, d.due);
      lock.wait_until(box.cv, due);
    }
  }
}

std::optional<Message> Communicator::try_recv(int rank) {
  Mailbox& box = boxes_[static_cast<std::size_t>(rank)];
  MutexLock lock(box.m);
  promote_due(box, mono_now());
  return pop_ready(box);
}

std::size_t Communicator::pending(int rank) const {
  const Mailbox& box = boxes_[static_cast<std::size_t>(rank)];
  MutexLock lock(box.m);
  return box.q.size() + box.delayed.size();
}

CommStats Communicator::stats() const {
  CommStats s;
  s.messages = messages_.load(std::memory_order_relaxed);
  s.payload_bytes = payload_bytes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace aero
