// In-memory span recorder for the traced benchmark run.
//
// The benchmark opens a span around each call it makes into a layer —
// once per batch or chunk, never per observation. Spans nest through a
// stack (one recording thread), so a span's self time is its duration
// minus the time its direct children cover. Disabled tracers record
// nothing; the scope objects then cost one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index into spans(), -1 for a root
    std::int64_t child_ns;  ///< time covered by direct children
  };

  struct Totals {
    std::int64_t self_ns = 0;
    std::int64_t total_ns = 0;
    std::uint64_t count = 0;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), id_(tracer.enabled_ ? tracer.begin(name) : -1) {}
    ~Scope() {
      if (id_ >= 0) tracer_.end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t id_;
  };

  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self and total time per span name.
  std::map<std::string, Totals> totals() const;

  /// One JSON object per line: name, start_ns, end_ns, parent, self_ns.
  void write_jsonl(const std::string& path) const;

 private:
  std::int32_t begin(const char* name);
  void end(std::int32_t id);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace e2ebench
