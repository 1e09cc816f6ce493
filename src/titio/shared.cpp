#include "titio/shared.hpp"

#include <bit>

#include "base/binio.hpp"

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

}  // namespace tir::titio
