#include "titio/shared.hpp"

#include <bit>

#include "base/binio.hpp"
#include "base/error.hpp"
#include "titio/format.hpp"

namespace tir::titio {

std::uint64_t hash_actions(const tit::Trace& trace) {
  // Domain tag 'T' keeps decoded-action fingerprints disjoint from the
  // TITB-file fingerprints of Reader::content_hash (tagged with the magic).
  std::uint64_t h = binio::mix64(binio::kHashSeed, 'T');
  h = binio::mix64(h, static_cast<std::uint64_t>(trace.nprocs()));
  for (int r = 0; r < trace.nprocs(); ++r) {
    const std::vector<tit::Action>& seq = trace.actions(r);
    h = binio::mix64(h, seq.size());
    for (const tit::Action& a : seq) h = fold_action_hash(h, a);
  }
  return h;
}

std::uint64_t fold_action_hash(std::uint64_t h, const tit::Action& a) {
  h = binio::mix64(h, static_cast<std::uint64_t>(a.type));
  h = binio::mix64(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.partner)));
  h = binio::mix64(h, std::bit_cast<std::uint64_t>(a.volume));
  h = binio::mix64(h, std::bit_cast<std::uint64_t>(a.volume2));
  return h;
}

SharedTrace::SharedTrace(std::shared_ptr<const tit::Trace> trace) : trace_(std::move(trace)) {
  if (trace_ == nullptr) throw ConfigError("SharedTrace constructed from a null trace");
  content_hash_ = hash_actions(*trace_);
}

SharedTrace SharedTrace::load(const std::string& path, ReaderOptions options, int nprocs) {
  if (!is_binary_trace(path)) {
    auto trace = std::make_shared<const tit::Trace>(tit::load_trace(path, nprocs));
    const std::uint64_t hash = hash_actions(*trace);
    return SharedTrace(std::move(trace), 0, hash);
  }
  Reader reader(path, options);
  const std::uint64_t hash = reader.content_hash();
  auto trace = std::make_shared<const tit::Trace>(reader.materialize());
  return SharedTrace(std::move(trace), reader.skipped_actions(), hash);
}

void pack_actions(std::vector<std::uint8_t>& out, std::span<const tit::Action> actions) {
  for (const tit::Action& a : actions) encode_action(out, a);
}

std::vector<tit::Action> unpack_actions(std::span<const std::uint8_t> bytes,
                                        std::uint64_t count, std::int32_t rank) {
  std::vector<tit::Action> actions;
  // Every action encodes to at least two bytes: a count the bytes cannot
  // hold fails before it reserves anything.
  if (count > bytes.size() / 2) throw ParseError("packed actions shorter than their count");
  actions.reserve(static_cast<std::size_t>(count));
  std::size_t pos = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    actions.push_back(decode_action(bytes.data(), bytes.size(), pos, rank));
  }
  if (pos != bytes.size()) throw ParseError("packed actions longer than their count");
  return actions;
}

PackedTrace::PackedTrace(const SharedTrace& trace)
    : content_hash_(trace.content_hash()), skipped_(trace.skipped_actions()) {
  const int nprocs = trace.nprocs();
  ends_.reserve(static_cast<std::size_t>(nprocs));
  counts_.reserve(static_cast<std::size_t>(nprocs));
  // LU averages 6.4 bytes per action; the shrink below drops the slack.
  bytes_.reserve(static_cast<std::size_t>(trace.total_actions()) * 8);
  for (int r = 0; r < nprocs; ++r) {
    const std::vector<tit::Action>& seq = trace.trace().actions(r);
    pack_actions(bytes_, seq);
    ends_.push_back(bytes_.size());
    counts_.push_back(seq.size());
  }
  bytes_.shrink_to_fit();
}

SharedTrace PackedTrace::unpack() const {
  tit::Trace trace(nprocs());
  std::uint64_t begin = 0;
  for (int r = 0; r < nprocs(); ++r) {
    const auto rank = static_cast<std::size_t>(r);
    trace.actions(r) = unpack_actions(
        std::span<const std::uint8_t>(bytes_).subspan(begin, ends_[rank] - begin),
        counts_[rank], r);
    begin = ends_[rank];
  }
  return SharedTrace(std::make_shared<const tit::Trace>(std::move(trace)), skipped_,
                     content_hash_);
}

}  // namespace tir::titio
