#include "support/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace coeff::sim {

std::uint64_t EventQueue::push(Time at, EventFn fn) {
  const std::uint64_t token = next_seq_++;
  alive_.push_back(true);
  heap_.push_back(Entry{at, token, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return token;
}

bool EventQueue::cancel(std::uint64_t token) {
  if (token >= next_seq_ || !alive_[token]) return false;
  alive_[token] = false;
  --live_;
  return true;
}

void EventQueue::drop_cancelled_head() const {
  while (!heap_.empty() && !alive_[heap_.front().seq]) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

bool EventQueue::empty() const {
  drop_cancelled_head();
  return heap_.empty();
}

Time EventQueue::next_time() const {
  drop_cancelled_head();
  assert(!heap_.empty());
  return heap_.front().at;
}

std::pair<Time, EventFn> EventQueue::pop() {
  drop_cancelled_head();
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry top = std::move(heap_.back());
  heap_.pop_back();
  alive_[top.seq] = false;
  --live_;
  return {top.at, std::move(top.fn)};
}

}  // namespace coeff::sim
