#include "titio/reader.hpp"

#include <algorithm>
#include <array>

#include "base/binio.hpp"
#include "base/error.hpp"

namespace tir::titio {

namespace {

/// The bounds rule for every frame body: `payload_bytes` of payload and a
/// 4-byte CRC fit between `body` and `end`.  A declared size is compared
/// with the bytes that remain and never added to an offset, so no declared
/// size can wrap past the check.
bool body_fits(std::uint64_t body, std::uint64_t end, std::uint64_t payload_bytes) {
  return body <= end && end - body >= 4 && payload_bytes <= end - body - 4;
}

/// Damage `what` to the `kind` frame at `offset` of `path`.
CorruptFrameError bad_frame(std::uint8_t kind, const char* what, const std::string& path,
                            std::uint64_t offset, int rank) {
  const char* const name =
      kind == kActionFrame ? "action" : kind == kIndexFrame ? "index" : "checkpoint";
  return CorruptFrameError(std::string(name) + " frame " + what + ": " + path, offset, rank);
}

/// Actually release a vector's storage (`v = {}` and clear() keep capacity).
void release(std::vector<std::uint8_t>& v) { std::vector<std::uint8_t>().swap(v); }

}  // namespace

Reader::Reader(const std::string& path, ReaderOptions options)
    : in_(path, std::ios::binary), path_(path), options_(options) {
  if (!in_) throw Error("cannot open binary trace: " + path);
  in_.seekg(0, std::ios::end);
  file_size_ = static_cast<std::uint64_t>(in_.tellg());
  if (file_size_ < kHeaderBytes + kFooterBytes) {
    throw CorruptFrameError(
        "binary trace too short (" + std::to_string(file_size_) + " bytes): " + path,
        file_size_);
  }

  std::array<std::uint8_t, kHeaderBytes> header{};
  if (!read_at(0, header.data(), header.size())) {
    throw ParseError("cannot read binary trace header: " + path);
  }
  if (binio::get_u32(header.data()) != kMagic) {
    throw ParseError("not a TITB binary trace (bad magic): " + path);
  }
  version_ = binio::get_u16(header.data() + 4);
  if (version_ != kVersion && version_ != kVersionV1) {
    throw ParseError("unsupported TITB version " + std::to_string(version_) + " (expected " +
                     std::to_string(kVersionV1) + " or " + std::to_string(kVersion) + "): " +
                     path);
  }
  const std::uint32_t nprocs = binio::get_u32(header.data() + 8);
  if (nprocs == 0 || nprocs > static_cast<std::uint32_t>(tit::kMaxRanks)) {
    throw ParseError("bad process count " + std::to_string(nprocs) + " (limit " +
                     std::to_string(tit::kMaxRanks) + "): " + path);
  }
  nprocs_ = static_cast<int>(nprocs);

  // v1 footer: index_offset u64, total_actions u64, end magic u32.
  // v2 footer: index_offset u64, ckpt_offset u64, total_actions u64, magic.
  const std::size_t footer_bytes = version_ == kVersionV1 ? kFooterBytesV1 : kFooterBytesV2;
  if (file_size_ < kHeaderBytes + footer_bytes) {
    throw CorruptFrameError(
        "binary trace too short for its footer (" + std::to_string(file_size_) +
            " bytes): " + path,
        file_size_);
  }
  const std::uint64_t index_end = file_size_ - footer_bytes;
  std::array<std::uint8_t, kFooterBytesV2> footer{};
  if (!read_at(index_end, footer.data(), footer_bytes)) {
    throw ParseError("cannot read binary trace footer: " + path);
  }
  if (binio::get_u32(footer.data() + footer_bytes - 4) != kEndMagic) {
    // The footer is the resync anchor: without it there is no index and no
    // recovery, so this is a typed corruption even in recover mode.
    throw CorruptFrameError("truncated binary trace (missing end marker): " + path, index_end);
  }
  index_offset_ = binio::get_u64(footer.data());
  if (version_ == kVersionV1) {
    total_actions_ = binio::get_u64(footer.data() + 8);
  } else {
    ckpt_offset_ = binio::get_u64(footer.data() + 8);
    total_actions_ = binio::get_u64(footer.data() + 16);
  }
  if (index_offset_ < kHeaderBytes || index_offset_ >= index_end) {
    throw CorruptFrameError("corrupt index offset in binary trace: " + path, index_end);
  }
  if (ckpt_offset_ != 0 && (ckpt_offset_ < kHeaderBytes || ckpt_offset_ >= index_offset_)) {
    throw CorruptFrameError("corrupt checkpoint offset in binary trace: " + path, index_end);
  }

  // The index frame spans [index_offset_, index_end) exactly.  It is the
  // resync anchor, so its damage is a typed corruption even in recover mode.
  // An entry takes at least four bytes, which bounds the count to reserve.
  const auto bad_index = [&](const std::string& what) {
    return CorruptFrameError(what + ": " + path, index_offset_);
  };
  const FrameHead head = read_head(index_offset_, index_end, kIndexFrame);
  if (head.id != head.count || head.count > head.payload_bytes / 4) {
    throw bad_index("corrupt index frame in binary trace");
  }
  std::vector<std::uint8_t> raw;
  read_body(index_offset_, head, index_end, raw);
  if (index_end - index_offset_ - head.preamble_bytes - 4 != raw.size()) {
    throw bad_index("index frame does not end at the footer");
  }

  of_rank_.resize(static_cast<std::size_t>(nprocs_));
  cursors_.resize(static_cast<std::size_t>(nprocs_));
  skipped_of_.resize(static_cast<std::size_t>(nprocs_), 0);
  frames_.reserve(static_cast<std::size_t>(head.count));
  std::size_t p = 0;
  const auto next = [&] {
    try {
      return binio::get_varint(raw.data(), raw.size(), p);
    } catch (const ParseError&) {
      throw bad_index("index truncated mid-entry");
    }
  };
  std::uint64_t prev_offset = 0;
  std::uint64_t indexed_actions = 0;
  for (std::uint64_t i = 0; i < head.count; ++i) {
    FrameRef f;
    const std::uint64_t rank = next();
    f.offset = prev_offset + next();
    f.actions = next();
    f.payload_bytes = next();
    prev_offset = f.offset;
    if (rank >= nprocs) {
      throw bad_index("index entry rank p" + std::to_string(rank) + " out of range");
    }
    if (f.offset < kHeaderBytes || !body_fits(f.offset, index_offset_, f.payload_bytes)) {
      throw bad_index("index entry offset out of bounds");
    }
    f.rank = static_cast<std::uint32_t>(rank);
    indexed_actions += f.actions;
    of_rank_[rank].push_back(frames_.size());
    frames_.push_back(f);
  }
  if (p != raw.size()) throw bad_index("trailing bytes in binary trace index");
  if (indexed_actions != total_actions_) {
    throw bad_index("index action count disagrees with footer");
  }
}

std::uint64_t Reader::actions_of(int rank) const {
  TIR_ASSERT(rank >= 0 && rank < nprocs_);
  std::uint64_t n = 0;
  for (const std::size_t f : of_rank_[static_cast<std::size_t>(rank)]) n += frames_[f].actions;
  return n;
}

std::uint64_t Reader::skipped_actions_of(int rank) const {
  TIR_ASSERT(rank >= 0 && rank < nprocs_);
  return skipped_of_[static_cast<std::size_t>(rank)];
}

void Reader::count_skip(int rank, std::uint64_t actions) {
  ++skipped_frames_;
  skipped_actions_ += actions;
  skipped_of_[static_cast<std::size_t>(rank)] += actions;
}

void Reader::account(std::ptrdiff_t delta) {
  buffered_ = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(buffered_) + delta);
  peak_buffered_ = std::max(peak_buffered_, buffered_);
}

bool Reader::read_at(std::uint64_t offset, std::uint8_t* data, std::size_t size) {
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(offset));
  in_.read(reinterpret_cast<char*>(data), static_cast<std::streamsize>(size));
  return in_.gcount() == static_cast<std::streamsize>(size);
}

FrameHead Reader::read_head(std::uint64_t offset, std::uint64_t end, std::uint8_t kind,
                            int rank) {
  std::array<std::uint8_t, kMaxFramePreamble> raw{};
  const std::size_t want =
      offset < end ? static_cast<std::size_t>(std::min<std::uint64_t>(raw.size(), end - offset))
                   : 0;
  if (!read_at(offset, raw.data(), want)) {
    throw bad_frame(kind, "truncated", path_, offset, rank);
  }
  FrameHead head;
  try {
    head = parse_frame_head(raw.data(), want);
  } catch (const ParseError&) {
    throw bad_frame(kind, "preamble unreadable", path_, offset, rank);
  }
  if (head.kind != kind) throw bad_frame(kind, "kind byte wrong", path_, offset, rank);
  return head;
}

void Reader::read_body(std::uint64_t offset, const FrameHead& head, std::uint64_t end,
                       std::vector<std::uint8_t>& payload, int rank) {
  const std::uint64_t body = offset + head.preamble_bytes;
  if (!body_fits(body, end, head.payload_bytes)) {
    throw bad_frame(head.kind, "overruns its bounds", path_, offset, rank);
  }
  const auto payload_bytes = static_cast<std::size_t>(head.payload_bytes);
  payload.resize(payload_bytes + 4);  // payload + CRC, one read
  if (!read_at(body, payload.data(), payload.size())) {
    throw bad_frame(head.kind, "payload truncated", path_, offset, rank);
  }
  const std::uint32_t want_crc = binio::get_u32(payload.data() + payload_bytes);
  payload.resize(payload_bytes);
  if (binio::crc32(payload.data(), payload.size()) != want_crc) {
    throw bad_frame(head.kind, "CRC mismatch", path_, offset, rank);
  }
}

void Reader::read_payload(const FrameRef& frame, std::vector<std::uint8_t>& payload) {
  // A frame that moved or shrank means it or the index is corrupt.
  const int rank = static_cast<int>(frame.rank);
  const FrameHead head = read_head(frame.offset, index_offset_, kActionFrame, rank);
  if (head.id != frame.rank || head.count != frame.actions ||
      head.payload_bytes != frame.payload_bytes) {
    throw bad_frame(kActionFrame, "disagrees with index", path_, frame.offset, rank);
  }
  read_body(frame.offset, head, index_offset_, payload, rank);
}

bool Reader::advance_frame(int rank, Cursor& cursor) {
  const std::vector<std::size_t>& list = of_rank_[static_cast<std::size_t>(rank)];
  // The loop only repeats in recover mode, stepping over corrupt frames:
  // the index (validated at open) is the resync anchor, so "skip" is simply
  // "try the rank's next indexed frame".
  while (cursor.next_frame < list.size()) {
    const FrameRef& frame = frames_[list[cursor.next_frame++]];

    // Invariant: buffered_ is the sum of payload capacities over every
    // cursor.
    account(-static_cast<std::ptrdiff_t>(cursor.payload.capacity()));
    release(cursor.payload);
    try {
      read_payload(frame, cursor.payload);
    } catch (const CorruptFrameError&) {
      if (!options_.recover) throw;
      release(cursor.payload);
      count_skip(rank, frame.actions);
      continue;
    }
    account(static_cast<std::ptrdiff_t>(cursor.payload.capacity()));
    cursor.pos = 0;
    cursor.remaining = frame.actions;
    cursor.batch.clear();
    cursor.batch_pos = 0;
    cursor.defer = nullptr;
    cursor.trailing = false;
    return true;
  }
  return false;
}

void Reader::fill_batch(int rank, Cursor& cursor) {
  cursor.batch.clear();
  cursor.batch_pos = 0;
  if (cursor.remaining == 0) return;
  const std::uint64_t want = std::min<std::uint64_t>(
      cursor.remaining, std::max<std::size_t>(options_.decode_batch, 1));
  // The payload cursor lives in locals for the loop: an Action's one-byte
  // type field may alias anything, so a store to it would otherwise force
  // cursor.pos and the payload bounds to be reloaded for every action.
  const std::uint8_t* const data = cursor.payload.data();
  const std::size_t size = cursor.payload.size();
  std::size_t pos = cursor.pos;
  try {
    for (std::uint64_t i = 0; i < want; ++i) {
      cursor.batch.push_back(decode_action(data, size, pos, static_cast<std::int32_t>(rank)));
    }
  } catch (const Error&) {
    // Keep the cleanly decoded prefix; the error surfaces once it is served.
    cursor.defer = std::current_exception();
  } catch (...) {
    // Anything else (bad_alloc from the batch) propagates, but the payload
    // cursor must still sit past the actions already in the batch.
    cursor.pos = pos;
    throw;
  }
  cursor.pos = pos;
  // Decoded the frame's final action with bytes left over: flag it so the
  // trailing-bytes diagnostic fires at that action's delivery, exactly where
  // unbatched decoding reported it.
  if (cursor.defer == nullptr && cursor.batch.size() == cursor.remaining &&
      cursor.pos != cursor.payload.size()) {
    cursor.trailing = true;
  }
}

std::span<const tit::Action> Reader::next_batch(int rank) {
  if (rank < 0 || rank >= nprocs_) {
    throw Error("rank p" + std::to_string(rank) + " out of range (nprocs=" +
                std::to_string(nprocs_) + "): " + path_);
  }
  Cursor& cursor = cursors_[static_cast<std::size_t>(rank)];
  for (;;) {
    std::size_t n = cursor.batch.size() - cursor.batch_pos;
    if (n > 0) {
      const tit::Action* const first = cursor.batch.data() + cursor.batch_pos;
      // A batch flagged `trailing` ends with its frame's last action, whose
      // delivery raises (strict) or records (recover) the trailing-bytes
      // diagnostic.  That action is held back and delivered alone by the
      // next pull, so the diagnostic fires at the same action index as it
      // does unbatched.
      const bool frame_end = cursor.trailing && n == cursor.remaining;
      if (frame_end && n > 1) --n;
      cursor.batch_pos += n;
      cursor.remaining -= n;
      if (frame_end && cursor.remaining == 0) {
        cursor.trailing = false;
        if (!options_.recover) {
          throw ParseError("frame payload size disagrees with its action count (rank p" +
                           std::to_string(rank) + "): " + path_);
        }
        // Recovery: the delivered actions decoded cleanly; note the frame as
        // damaged (trailing bytes) without retracting them.
        ++skipped_frames_;
      }
      return {first, n};
    }
    if (cursor.defer != nullptr) {
      // The CRC passed but the payload stopped decoding (a writer bug or a
      // collision-masked corruption) right after the actions already served:
      // strict mode propagates (and keeps propagating on further calls),
      // recovery abandons the rest of this frame and resyncs to the next one.
      if (!options_.recover) std::rethrow_exception(cursor.defer);
      cursor.defer = nullptr;
      count_skip(rank, cursor.remaining);
      cursor.remaining = 0;
    }
    if (cursor.remaining == 0) {
      if (!advance_frame(rank, cursor)) {
        // Stream exhausted: release this cursor's buffers.
        account(-static_cast<std::ptrdiff_t>(cursor.payload.capacity()));
        release(cursor.payload);
        std::vector<tit::Action>().swap(cursor.batch);
        cursor.batch_pos = 0;
        return {};
      }
    }
    fill_batch(rank, cursor);
  }
}

std::uint64_t Reader::content_hash() {
  // Domain-tagged so a TITB fingerprint can never collide with the
  // decoded-action fingerprint of a text trace (titio::hash_actions).
  std::uint64_t h = binio::mix64(binio::kHashSeed, kMagic);
  h = binio::mix64(h, static_cast<std::uint64_t>(nprocs_));
  h = binio::mix64(h, total_actions_);
  for (const FrameRef& frame : frames_) {
    h = binio::mix64(h, frame.rank);
    h = binio::mix64(h, frame.actions);
    // The stored CRC sits right after the payload the index entry sizes.
    // A frame whose CRC cannot be found that way (possible under
    // ReaderOptions::recover, whose loads skip such frames) is folded in as
    // its index entry instead — deterministic either way.
    std::array<std::uint8_t, 4> crc{};
    bool have_crc = false;
    try {
      const std::uint64_t body =
          frame.offset + read_head(frame.offset, file_size_, kActionFrame).preamble_bytes;
      have_crc = body_fits(body, file_size_, frame.payload_bytes) &&
                 read_at(body + frame.payload_bytes, crc.data(), crc.size());
    } catch (const CorruptFrameError&) {  // NOLINT(bugprone-empty-catch): index-entry fold
    }
    h = binio::mix64(h, have_crc ? binio::get_u32(crc.data())
                                 : binio::mix64(frame.offset, frame.payload_bytes));
  }
  return h;
}

std::vector<std::uint8_t> Reader::read_checkpoint_payload() {
  std::vector<std::uint8_t> payload;
  if (ckpt_offset_ == 0) return payload;
  // The checkpoint frame sits right before the index.
  const FrameHead head = read_head(ckpt_offset_, index_offset_, kCheckpointFrame);
  if (head.id != head.count) {
    throw bad_frame(kCheckpointFrame, "block counts disagree", path_, ckpt_offset_, -1);
  }
  read_body(ckpt_offset_, head, index_offset_, payload);
  return payload;
}

void Reader::verify() {
  std::vector<std::uint8_t> payload;
  for (const FrameRef& frame : frames_) {
    read_payload(frame, payload);
    std::size_t pos = 0;
    for (std::uint64_t i = 0; i < frame.actions; ++i) {
      decode_action(payload.data(), payload.size(), pos, static_cast<std::int32_t>(frame.rank));
    }
    if (pos != payload.size()) {
      throw ParseError("frame at offset " + std::to_string(frame.offset) +
                       " has trailing bytes: " + path_);
    }
  }
}

bool is_binary_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);  // a missing file reads 0 bytes
  std::array<std::uint8_t, 4> magic{};
  in.read(reinterpret_cast<char*>(magic.data()), magic.size());
  return in.gcount() == 4 && binio::get_u32(magic.data()) == kMagic;
}

tit::Trace Reader::materialize() {
  tit::Trace trace(nprocs_);
  for (int r = 0; r < nprocs_; ++r) {
    std::vector<tit::Action>& seq = trace.actions(r);
    // Capped by the file size (an action encodes to at least one byte), so
    // a forged index cannot demand an absurd reservation.
    seq.reserve(static_cast<std::size_t>(std::min(actions_of(r), file_size_)));
    for (std::span<const tit::Action> batch = next_batch(r); !batch.empty();
         batch = next_batch(r)) {
      seq.insert(seq.end(), batch.begin(), batch.end());
    }
  }
  return trace;
}

tit::Trace read_binary_trace(const std::string& path) {
  Reader reader(path);
  return reader.materialize();
}

}  // namespace tir::titio
