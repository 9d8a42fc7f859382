#include "support/engine.hpp"

#include <stdexcept>

namespace coeff::sim {

std::uint64_t Engine::schedule_at(Time at, EventFn fn) {
  if (at < now_) {
    throw std::invalid_argument("Engine::schedule_at: time " +
                                to_string(at) + " is before now " +
                                to_string(now_));
  }
  return queue_.push(at, std::move(fn));
}

std::uint64_t Engine::schedule_after(Time delay, EventFn fn) {
  if (delay < Time::zero()) {
    throw std::invalid_argument("Engine::schedule_after: negative delay " +
                                to_string(delay));
  }
  return queue_.push(now_ + delay, std::move(fn));
}

std::size_t Engine::run_until(Time deadline) {
  std::size_t n = 0;
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    auto [at, fn] = queue_.pop();
    now_ = at;
    fn();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  fired_ += n;
  return n;
}

std::size_t Engine::run_to_completion() {
  std::size_t n = 0;
  while (!queue_.empty()) {
    auto [at, fn] = queue_.pop();
    now_ = at;
    fn();
    ++n;
  }
  fired_ += n;
  return n;
}

bool Engine::step() {
  if (queue_.empty()) return false;
  auto [at, fn] = queue_.pop();
  now_ = at;
  fn();
  ++fired_;
  return true;
}

}  // namespace coeff::sim
