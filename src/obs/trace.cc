#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/flat_table.h"

namespace udr::obs {

TraceContext Span::context() const {
  if (tracer_ == nullptr) return TraceContext{};
  const SpanRecord& rec = tracer_->spans_[index_];
  return TraceContext{rec.trace_id, rec.span_id, true};
}

void Span::End() {
  if (tracer_ == nullptr) return;
  SpanRecord& rec = tracer_->spans_[index_];
  if (rec.end < rec.start) rec.end = tracer_->clock_->Now();
  if (rec.end < rec.start) rec.end = rec.start;
  tracer_ = nullptr;
}

void Span::EndAt(MicroTime t) {
  if (tracer_ == nullptr) return;
  SpanRecord& rec = tracer_->spans_[index_];
  rec.end = t < rec.start ? rec.start : t;
  tracer_ = nullptr;
}

Tracer::Tracer(Options options, const sim::SimClock* clock)
    : options_(options), clock_(clock) {}

bool Tracer::SampleDecision(uint64_t seed, uint64_t trace_id, double rate) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  // Compare the hash against rate * 2^64 without overflowing: split off the
  // top 11 bits so the product stays in double-exact integer range.
  // A splitmix64 step over seed ^ trace_id: a uniform hash, deterministic
  // per trace and uncorrelated with any Rng stream.
  const uint64_t h = Mix64((seed ^ trace_id) + 0x9E3779B97f4A7C15ULL);
  const double scaled = rate * 9007199254740992.0;  // rate * 2^53.
  return static_cast<double>(h >> 11) < scaled;
}

TraceContext Tracer::StartTrace() {
  TraceContext ctx;
  ctx.trace_id = next_trace_id_++;
  ctx.span_id = 0;
  ctx.sampled =
      SampleDecision(options_.seed, ctx.trace_id, options_.sample_rate);
  if (ctx.sampled) ++traces_sampled_;
  return ctx;
}

Span Tracer::StartSpan(const char* name, const TraceContext& parent) {
  return StartSpanAt(name, parent, clock_->Now());
}

Span Tracer::StartSpanAt(const char* name, const TraceContext& parent,
                         MicroTime start) {
  if (!parent.active()) return Span();
  if (spans_.size() >= options_.max_spans) {
    ++dropped_;
    return Span();
  }
  SpanRecord rec;
  rec.name = name;
  rec.trace_id = parent.trace_id;
  rec.span_id = next_span_id_++;
  rec.parent_id = parent.span_id;
  rec.start = start;
  rec.end = rec.start - 1;  // "Open" sentinel; End/EndAt fixes it up.
  rec.lane = options_.lane;
  spans_.push_back(rec);
  return Span(this, spans_.size() - 1);
}

uint64_t Tracer::RecordSpan(const char* name, const TraceContext& parent,
                            MicroTime start, MicroTime end) {
  if (!parent.active()) return 0;
  if (spans_.size() >= options_.max_spans) {
    ++dropped_;
    return 0;
  }
  SpanRecord rec;
  rec.name = name;
  rec.trace_id = parent.trace_id;
  rec.span_id = next_span_id_++;
  rec.parent_id = parent.span_id;
  rec.start = start;
  rec.end = end < start ? start : end;
  rec.lane = options_.lane;
  spans_.push_back(rec);
  return rec.span_id;
}

void Tracer::MergeFrom(const Tracer& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  dropped_ += other.dropped_;
  traces_sampled_ += other.traces_sampled_;
}

std::string Tracer::ExportChromeJson() const {
  std::vector<const SpanRecord*> sorted;
  sorted.reserve(spans_.size());
  for (const SpanRecord& rec : spans_) sorted.push_back(&rec);
  std::sort(sorted.begin(), sorted.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              if (a->start != b->start) return a->start < b->start;
              if (a->lane != b->lane) return a->lane < b->lane;
              return a->span_id < b->span_id;
            });

  std::string out = "{\"traceEvents\":[\n";
  char buf[256];
  for (size_t i = 0; i < sorted.size(); ++i) {
    const SpanRecord& rec = *sorted[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%" PRId64
                  ",\"dur\":%" PRId64
                  ",\"pid\":0,\"tid\":%u,\"args\":{\"trace\":%" PRIu64
                  ",\"span\":%" PRIu64 ",\"parent\":%" PRIu64 "}}%s\n",
                  rec.name, rec.start,
                  rec.end >= rec.start ? rec.end - rec.start : 0, rec.lane,
                  rec.trace_id, rec.span_id, rec.parent_id,
                  i + 1 < sorted.size() ? "," : "");
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace udr::obs
