#include "titio/writer.hpp"

#include "base/binio.hpp"
#include "base/error.hpp"

namespace tir::titio {

Writer::Writer(const std::string& path, int nprocs, WriterOptions options)
    : path_(path), options_(options), nprocs_(nprocs) {
  if (nprocs <= 0 || nprocs > tit::kMaxRanks) {
    throw ConfigError("binary trace needs 1 to " + std::to_string(tit::kMaxRanks) +
                      " processes, got " + std::to_string(nprocs));
  }
  if (options_.frame_actions == 0) options_.frame_actions = 1;
  if (options_.version != kVersion && options_.version != kVersionV1) {
    throw Error("unsupported TITB writer version " + std::to_string(options_.version) + ": " +
                path);
  }
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) throw Error("cannot write binary trace: " + path);
  pending_.resize(static_cast<std::size_t>(nprocs));
  pending_count_.resize(static_cast<std::size_t>(nprocs), 0);

  std::vector<std::uint8_t> header;
  binio::put_u32(header, kMagic);
  binio::put_u16(header, options_.version);
  binio::put_u16(header, 0);  // flags
  binio::put_u32(header, static_cast<std::uint32_t>(nprocs));
  emit(header);
}

Writer::~Writer() {
  try {
    finish();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
    // Destructor must not throw; an unfinished file fails to load anyway.
  }
}

void Writer::add(const tit::Action& a) {
  if (finished_) throw Error("binary trace writer already finished: " + path_);
  if (a.proc < 0 || a.proc >= nprocs_) {
    throw Error("action rank p" + std::to_string(a.proc) + " out of range (nprocs=" +
                std::to_string(nprocs_) + ") in " + path_);
  }
  const auto rank = static_cast<std::size_t>(a.proc);
  encode_action(pending_[rank], a);
  ++pending_count_[rank];
  ++total_actions_;
  if (pending_count_[rank] >= options_.frame_actions) flush_rank(rank);
}

void Writer::flush_rank(std::size_t rank) {
  if (pending_count_[rank] == 0) return;
  frames_.push_back(FrameRef{offset_, pending_count_[rank], pending_[rank].size(),
                             static_cast<std::uint32_t>(rank)});
  std::vector<std::uint8_t> frame;
  put_frame(frame, kActionFrame, rank, pending_count_[rank], pending_[rank]);
  emit(frame);
  pending_[rank].clear();
  pending_count_[rank] = 0;
}

void Writer::emit(const std::vector<std::uint8_t>& bytes) {
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  if (!out_) throw Error("write failed on binary trace: " + path_);
  offset_ += bytes.size();
}

void Writer::finish() {
  if (finished_) return;
  for (std::size_t r = 0; r < pending_.size(); ++r) flush_rank(r);

  std::vector<std::uint8_t> tail;
  put_frame(tail, kIndexFrame, frames_.size(), frames_.size(), encode_index(frames_));
  binio::put_u64(tail, offset_);  // the index frame's offset
  // v2 footer carries the checkpoint-frame offset; a freshly written trace
  // has no checkpoints (ckpt::append_checkpoints adds them in place later).
  if (options_.version != kVersionV1) binio::put_u64(tail, 0);
  binio::put_u64(tail, total_actions_);
  binio::put_u32(tail, kEndMagic);
  emit(tail);
  out_.flush();
  if (!out_) throw Error("write failed on binary trace: " + path_);
  finished_ = true;
}

void write_binary_trace(const tit::Trace& trace, const std::string& path,
                        WriterOptions options) {
  Writer writer(path, trace.nprocs(), options);
  for (int p = 0; p < trace.nprocs(); ++p) {
    for (const tit::Action& a : trace.actions(p)) writer.add(a);
  }
  writer.finish();
}

}  // namespace tir::titio
