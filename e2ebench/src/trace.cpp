#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace e2ebench {

std::int32_t Tracer::begin(const char* name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, now_ns(), 0, parent, 0});
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  open_.pop_back();
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].child_ns += span.end_ns - span.start_ns;
  }
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::map<std::string, Totals> out;
  for (const auto& span : spans_) {
    Totals& t = out[span.name];
    const std::int64_t total = span.end_ns - span.start_ns;
    t.total_ns += total;
    t.self_ns += total - span.child_ns;
    ++t.count;
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const auto& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                 "\"self_ns\":%lld}\n",
                 s.name, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), s.parent,
                 static_cast<long long>(s.end_ns - s.start_ns - s.child_ns));
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace e2ebench
