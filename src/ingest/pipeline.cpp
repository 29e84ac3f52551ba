#include "ingest/pipeline.hpp"

#include <algorithm>
#include <cstring>

namespace artemis::ingest {

bool parse_lag_policy(std::string_view text, LagPolicy& policy) {
  if (text == "flush") {
    policy = LagPolicy::kFlush;
    return true;
  }
  if (text == "drop") {
    policy = LagPolicy::kDrop;
    return true;
  }
  return false;
}

std::string_view to_string(LagPolicy policy) {
  switch (policy) {
    case LagPolicy::kFlush: return "flush";
    case LagPolicy::kDrop: return "drop";
  }
  return "flush";
}

IngestPipeline::IngestPipeline(journal::JournalWriter& writer,
                               PipelineOptions options)
    : writer_(writer), options_(options), converter_(options.convert) {
  if (options_.metrics != nullptr) {
    metrics_ = telemetry::register_ingest(*options_.metrics);
    writer_.set_metrics(telemetry::register_journal(*options_.metrics));
  }
  // Bind the two hot-path callbacks once; per-chunk work then goes
  // through pre-allocated std::functions instead of constructing them.
  batch_sink_ = [this](std::span<const feeds::Observation> batch) {
    on_batch(batch);
  };
  decompressed_sink_ = [this](std::span<const std::uint8_t> data) {
    converter_.feed(data, batch_sink_);
  };
}

void IngestPipeline::begin_source(std::uint64_t skip_observations) {
  stats_ = SourceFeedStats{};
  active_ = nullptr;
  head_len_ = 0;
  skip_remaining_ = skip_observations;
  converter_.begin_file();
}

mrt::ChunkDecompressor* IngestPipeline::decompressor_for(
    mrt::Compression compression) {
  std::unique_ptr<mrt::ChunkDecompressor>* slot = nullptr;
  switch (compression) {
    case mrt::Compression::kNone: slot = &identity_; break;
    case mrt::Compression::kGzip: slot = &gzip_; break;
    case mrt::Compression::kBzip2: slot = &bzip2_; break;
  }
  if (!*slot) {
    *slot = mrt::make_chunk_decompressor(compression);
  } else {
    (*slot)->reset();
  }
  return slot->get();
}

void IngestPipeline::feed(std::span<const std::uint8_t> chunk) {
  stats_.bytes_in += chunk.size();
  if (active_ == nullptr) {
    // Stash bytes until the magic is decidable (bzip2's is 4 bytes; a
    // stream shorter than the stash sniffs at finish_source()).
    while (head_len_ < sizeof(head_) && !chunk.empty()) {
      head_[head_len_++] = chunk.front();
      chunk = chunk.subspan(1);
    }
    if (head_len_ < sizeof(head_)) return;
    stats_.compression = mrt::sniff_compression({head_, head_len_});
    active_ = decompressor_for(stats_.compression);
    active_->feed({head_, head_len_}, decompressed_sink_);
  }
  if (!chunk.empty()) active_->feed(chunk, decompressed_sink_);
  // Drain-driven batching: every record this read completed is journaled
  // and tapped before feed() returns. One emission per read, so batch
  // size follows the read size (capped by batch_capacity).
  converter_.flush(batch_sink_);
}

void IngestPipeline::on_batch(std::span<const feeds::Observation> batch) {
  if (batch.empty()) return;
  // Ledger order matters for /healthz: bump `converted` before any
  // outcome counter, so a concurrent scrape can only observe
  // converted >= journaled + skipped + dropped (never the reverse).
  if (metrics_.converted != nullptr) metrics_.converted->add(batch.size());
  // Resume shim: the leading `skip_remaining_` observations of this
  // re-converted stream are already durable from the pre-crash run.
  if (skip_remaining_ > 0) {
    const std::uint64_t skip =
        std::min<std::uint64_t>(skip_remaining_, batch.size());
    skip_remaining_ -= skip;
    stats_.observations_skipped += skip;
    if (metrics_.skipped != nullptr) metrics_.skipped->add(skip);
    batch = batch.subspan(static_cast<std::size_t>(skip));
    if (batch.empty()) return;
  }
  // Backpressure: bound the journal lag before taking on more records.
  if (writer_.records_buffered() >= options_.max_lag_records) {
    if (options_.lag_policy == LagPolicy::kDrop) {
      ++stats_.batches_dropped;
      stats_.observations_dropped += batch.size();
      if (metrics_.dropped != nullptr) metrics_.dropped->add(batch.size());
      return;
    }
    writer_.flush();
    ++stats_.lag_flushes;
  }
  writer_.append_batch(batch);
  stats_.observations_journaled += batch.size();
  if (metrics_.journaled != nullptr) metrics_.journaled->add(batch.size());
  // Tap AFTER the append succeeds, with the identical span: the live
  // detector only ever sees observations the journal holds, keeping
  // "replay the journal" a faithful re-run of what detection saw.
  if (options_.detection_tap) options_.detection_tap(batch);
}

SourceFeedStats IngestPipeline::finish_source() {
  if (active_ == nullptr) {
    // Stream ended before the sniff stash filled: sniff what there is.
    // (Real MRT records are >= 12 bytes, so this is the empty-or-garbage
    // tail case; the converter will report it as truncated if nonempty.)
    stats_.compression = mrt::sniff_compression({head_, head_len_});
    active_ = decompressor_for(stats_.compression);
    if (head_len_ > 0) active_->feed({head_, head_len_}, decompressed_sink_);
    head_len_ = 0;
  }
  active_->finish(decompressed_sink_);
  stats_.stream_truncated = active_->truncated();
  stats_.stream_error = active_->error();
  stats_.convert = converter_.finish_file(batch_sink_);
  // A transport-layer tear is a truncation of the source even when the
  // recovered prefix happened to end on an MRT record boundary — the same
  // patch import_mrt_files applies for the pull path (the stream's own
  // message stays in stream_error, mirroring its transport_error).
  if (stats_.stream_truncated && stats_.convert.error.empty()) {
    stats_.convert.truncated = true;
  }
  if (metrics_.enabled()) {
    metrics_.convert_records->add(stats_.convert.records);
    metrics_.convert_skips->add(stats_.convert.skipped_records);
  }
  active_ = nullptr;
  return stats_;
}

}  // namespace artemis::ingest
