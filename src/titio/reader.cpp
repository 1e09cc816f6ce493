#include "titio/reader.hpp"

#include <algorithm>
#include <array>

#include "base/binio.hpp"
#include "base/error.hpp"
#include "base/log.hpp"

namespace tir::titio {

namespace {

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
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
  in_.seekg(0);
  in_.read(reinterpret_cast<char*>(header.data()), header.size());
  if (!in_) throw ParseError("cannot read binary trace header: " + path);
  if (get_u32(header.data()) != kMagic) {
    throw ParseError("not a TITB binary trace (bad magic): " + path);
  }
  version_ = get_u16(header.data() + 4);
  if (version_ != kVersion && version_ != kVersionV1) {
    throw ParseError("unsupported TITB version " + std::to_string(version_) + " (expected " +
                     std::to_string(kVersionV1) + " or " + std::to_string(kVersion) + "): " +
                     path);
  }
  const std::uint32_t nprocs = get_u32(header.data() + 8);
  if (nprocs == 0 || nprocs > 0x7FFFFFFFu) {
    throw ParseError("bad process count " + std::to_string(nprocs) + ": " + path);
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
  std::array<std::uint8_t, kFooterBytesV2> footer{};
  in_.seekg(static_cast<std::streamoff>(file_size_ - footer_bytes));
  in_.read(reinterpret_cast<char*>(footer.data()), static_cast<std::streamsize>(footer_bytes));
  if (!in_) throw ParseError("cannot read binary trace footer: " + path);
  if (get_u32(footer.data() + footer_bytes - 4) != kEndMagic) {
    // The footer is the resync anchor: without it there is no index and no
    // recovery, so this is a typed corruption even in recover mode.
    throw CorruptFrameError("truncated binary trace (missing end marker): " + path,
                            file_size_ - footer_bytes);
  }
  index_offset_ = get_u64(footer.data());
  if (version_ == kVersionV1) {
    total_actions_ = get_u64(footer.data() + 8);
  } else {
    ckpt_offset_ = get_u64(footer.data() + 8);
    total_actions_ = get_u64(footer.data() + 16);
  }
  const std::uint64_t index_offset = index_offset_;
  if (index_offset < kHeaderBytes || index_offset >= file_size_ - footer_bytes) {
    throw CorruptFrameError("corrupt index offset in binary trace: " + path,
                            file_size_ - footer_bytes);
  }
  if (ckpt_offset_ != 0 && (ckpt_offset_ < kHeaderBytes || ckpt_offset_ >= index_offset)) {
    throw CorruptFrameError("corrupt checkpoint offset in binary trace: " + path,
                            file_size_ - footer_bytes);
  }

  // The index frame spans [index_offset, file_size - footer).
  const std::size_t index_span = static_cast<std::size_t>(file_size_ - footer_bytes - index_offset);
  std::vector<std::uint8_t> raw(index_span);
  in_.seekg(static_cast<std::streamoff>(index_offset));
  in_.read(reinterpret_cast<char*>(raw.data()), static_cast<std::streamsize>(raw.size()));
  if (!in_) throw ParseError("cannot read binary trace index: " + path);

  std::size_t pos = 0;
  if (raw[pos++] != kIndexFrame) {
    throw CorruptFrameError("corrupt index frame kind: " + path, index_offset);
  }
  std::uint64_t entries = 0;
  std::uint64_t entries2 = 0;
  std::uint64_t payload_bytes = 0;
  try {
    entries = binio::get_varint(raw.data(), raw.size(), pos);
    entries2 = binio::get_varint(raw.data(), raw.size(), pos);
    payload_bytes = binio::get_varint(raw.data(), raw.size(), pos);
  } catch (const ParseError&) {
    throw CorruptFrameError("index preamble truncated: " + path, index_offset);
  }
  if (entries != entries2 || pos + payload_bytes + 4 != raw.size()) {
    throw CorruptFrameError("corrupt index frame in binary trace: " + path, index_offset);
  }
  const std::uint32_t want_crc = get_u32(raw.data() + pos + payload_bytes);
  if (binio::crc32(raw.data() + pos, static_cast<std::size_t>(payload_bytes)) != want_crc) {
    throw CorruptFrameError("index frame CRC mismatch: " + path, index_offset);
  }

  of_rank_.resize(static_cast<std::size_t>(nprocs_));
  cursors_.resize(static_cast<std::size_t>(nprocs_));
  skipped_of_.resize(static_cast<std::size_t>(nprocs_), 0);
  frames_.reserve(static_cast<std::size_t>(entries));
  std::size_t p = pos;
  const std::size_t payload_end = pos + static_cast<std::size_t>(payload_bytes);
  std::uint64_t prev_offset = 0;
  std::uint64_t indexed_actions = 0;
  try {
    for (std::uint64_t i = 0; i < entries; ++i) {
      FrameRef f;
      const std::uint64_t rank = binio::get_varint(raw.data(), payload_end, p);
      f.offset = prev_offset + binio::get_varint(raw.data(), payload_end, p);
      f.actions = binio::get_varint(raw.data(), payload_end, p);
      f.payload_bytes = binio::get_varint(raw.data(), payload_end, p);
      prev_offset = f.offset;
      if (rank >= nprocs) {
        throw CorruptFrameError("index entry rank p" + std::to_string(rank) + " out of range: " +
                                    path,
                                index_offset);
      }
      if (f.offset < kHeaderBytes || f.offset + f.payload_bytes + 4 > index_offset) {
        throw CorruptFrameError("index entry offset out of bounds: " + path, index_offset);
      }
      f.rank = static_cast<std::uint32_t>(rank);
      indexed_actions += f.actions;
      of_rank_[rank].push_back(frames_.size());
      frames_.push_back(f);
    }
  } catch (const CorruptFrameError&) {
    throw;  // already typed with the index offset
  } catch (const ParseError&) {
    // A varint ran past the payload: the index itself is truncated
    // mid-entry.  The index is the resync anchor, so there is nothing to
    // recover with — surface a typed corruption with the damage's byte
    // offset even in recover mode, never a bare parse error (or a loop).
    throw CorruptFrameError("index truncated mid-entry: " + path, index_offset);
  }
  if (p != payload_end) {
    throw CorruptFrameError("trailing bytes in binary trace index: " + path, index_offset);
  }
  if (indexed_actions != total_actions_) {
    throw CorruptFrameError("index action count disagrees with footer: " + path, index_offset);
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

void Reader::read_payload(const FrameRef& frame, std::vector<std::uint8_t>& payload) {
  // Re-parse the frame preamble and cross-check it against the index: a
  // frame that moved or shrank means either side is corrupt.
  std::array<std::uint8_t, kMaxFramePreamble> preamble{};
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(frame.offset));
  const std::size_t want =
      std::min<std::size_t>(preamble.size(), static_cast<std::size_t>(file_size_ - frame.offset));
  in_.read(reinterpret_cast<char*>(preamble.data()), static_cast<std::streamsize>(want));
  if (in_.gcount() != static_cast<std::streamsize>(want)) {
    throw CorruptFrameError("truncated frame: " + path_, frame.offset,
                            static_cast<int>(frame.rank));
  }
  std::size_t pos = 0;
  if (preamble[pos++] != kActionFrame) {
    throw CorruptFrameError("bad frame kind: " + path_, frame.offset,
                            static_cast<int>(frame.rank));
  }
  std::uint64_t rank = 0, actions = 0, payload_bytes = 0;
  try {
    rank = binio::get_varint(preamble.data(), want, pos);
    actions = binio::get_varint(preamble.data(), want, pos);
    payload_bytes = binio::get_varint(preamble.data(), want, pos);
  } catch (const Error&) {
    throw CorruptFrameError("unreadable frame preamble: " + path_, frame.offset,
                            static_cast<int>(frame.rank));
  }
  if (rank != frame.rank || actions != frame.actions || payload_bytes != frame.payload_bytes) {
    throw CorruptFrameError("frame disagrees with index: " + path_, frame.offset,
                            static_cast<int>(frame.rank));
  }

  payload.resize(static_cast<std::size_t>(payload_bytes) + 4);  // payload + CRC
  in_.seekg(static_cast<std::streamoff>(frame.offset + pos));
  in_.read(reinterpret_cast<char*>(payload.data()), static_cast<std::streamsize>(payload.size()));
  if (in_.gcount() != static_cast<std::streamsize>(payload.size())) {
    throw CorruptFrameError("truncated frame payload: " + path_, frame.offset,
                            static_cast<int>(frame.rank));
  }
  const std::uint32_t want_crc = get_u32(payload.data() + payload_bytes);
  payload.resize(static_cast<std::size_t>(payload_bytes));
  if (binio::crc32(payload.data(), payload.size()) != want_crc) {
    throw CorruptFrameError("frame CRC mismatch: " + path_, frame.offset,
                            static_cast<int>(frame.rank));
  }
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
  std::array<std::uint8_t, kMaxFramePreamble> preamble{};
  for (const FrameRef& frame : frames_) {
    h = binio::mix64(h, frame.rank);
    h = binio::mix64(h, frame.actions);
    // The stored CRC sits right after the payload; find it by re-parsing the
    // preamble length.  An unparseable preamble (possible under
    // ReaderOptions::recover, whose loads skip such frames) is folded in as
    // its index entry instead — deterministic either way.
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(frame.offset));
    const std::size_t want = std::min<std::size_t>(
        preamble.size(), static_cast<std::size_t>(file_size_ - frame.offset));
    in_.read(reinterpret_cast<char*>(preamble.data()), static_cast<std::streamsize>(want));
    std::uint32_t crc = 0;
    bool have_crc = false;
    if (in_.gcount() == static_cast<std::streamsize>(want) && want > 0 &&
        preamble[0] == kActionFrame) {
      try {
        std::size_t pos = 1;
        binio::get_varint(preamble.data(), want, pos);  // rank
        binio::get_varint(preamble.data(), want, pos);  // action count
        binio::get_varint(preamble.data(), want, pos);  // payload size
        const std::uint64_t crc_at = frame.offset + pos + frame.payload_bytes;
        if (crc_at + 4 <= file_size_) {
          std::array<std::uint8_t, 4> raw{};
          in_.clear();
          in_.seekg(static_cast<std::streamoff>(crc_at));
          in_.read(reinterpret_cast<char*>(raw.data()), 4);
          if (in_.gcount() == 4) {
            crc = get_u32(raw.data());
            have_crc = true;
          }
        }
      } catch (const Error&) {
        // fall through to the index-entry fold below
      }
    }
    h = binio::mix64(h, have_crc ? crc : binio::mix64(frame.offset, frame.payload_bytes));
  }
  return h;
}

std::vector<std::uint8_t> Reader::read_checkpoint_payload() {
  if (ckpt_offset_ == 0) return {};
  // CheckpointFrame := 'C' u8, block_count varint (x2), payload_size varint,
  // payload, crc32.  Never fatal: checkpoints only accelerate seeks, so any
  // damage degrades to "no checkpoints" with a warning instead of throwing.
  const auto fail = [this](const std::string& why) {
    TIR_LOG(Warn, "ignoring damaged checkpoint frame in " + path_ + " (" + why +
                      "); seeks fall back to cold replay");
    return std::vector<std::uint8_t>{};
  };
  std::array<std::uint8_t, kMaxFramePreamble> preamble{};
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(ckpt_offset_));
  const std::size_t want = std::min<std::size_t>(
      preamble.size(), static_cast<std::size_t>(file_size_ - ckpt_offset_));
  in_.read(reinterpret_cast<char*>(preamble.data()), static_cast<std::streamsize>(want));
  if (in_.gcount() != static_cast<std::streamsize>(want)) return fail("truncated preamble");
  std::size_t pos = 0;
  if (preamble[pos++] != kCheckpointFrame) return fail("bad frame kind");
  std::uint64_t blocks = 0, blocks2 = 0, payload_bytes = 0;
  try {
    blocks = binio::get_varint(preamble.data(), want, pos);
    blocks2 = binio::get_varint(preamble.data(), want, pos);
    payload_bytes = binio::get_varint(preamble.data(), want, pos);
  } catch (const Error&) {
    return fail("unreadable preamble");
  }
  if (blocks != blocks2) return fail("block count mismatch");
  if (ckpt_offset_ + pos + payload_bytes + 4 > file_size_) return fail("payload out of bounds");
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(payload_bytes) + 4);
  in_.seekg(static_cast<std::streamoff>(ckpt_offset_ + pos));
  in_.read(reinterpret_cast<char*>(payload.data()), static_cast<std::streamsize>(payload.size()));
  if (in_.gcount() != static_cast<std::streamsize>(payload.size())) {
    return fail("truncated payload");
  }
  const std::uint32_t want_crc = get_u32(payload.data() + payload_bytes);
  payload.resize(static_cast<std::size_t>(payload_bytes));
  if (binio::crc32(payload.data(), payload.size()) != want_crc) return fail("CRC mismatch");
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
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::array<std::uint8_t, 4> magic{};
  in.read(reinterpret_cast<char*>(magic.data()), magic.size());
  return in.gcount() == 4 && get_u32(magic.data()) == kMagic;
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
