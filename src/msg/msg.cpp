#include "msg/msg.hpp"

namespace tir::msg {

BoxId Mailboxes::box(const std::string& mailbox) {
  const auto [it, inserted] = names_.emplace(mailbox, static_cast<BoxId>(boxes_.size()));
  if (inserted) boxes_.push_back(Box{mailbox, {}, {}});
  return it->second;
}

sim::ActivityPtr Mailboxes::match(const Box& box, const Put& put, platform::HostId dst_host) {
  if (obs::Sink* const sink = engine_.sink()) sink->on_mailbox_match(box.name, put.bytes);
  sim::ActivityPtr comm = engine_.make_comm(put.src_host, dst_host, put.bytes);
  if (put.done != nullptr) engine_.chain(comm, put.done);
  return comm;
}

Request Mailboxes::match_or_post(sim::Ctx& ctx, BoxId box_id, RecvSlot& slot) {
  Box& box = boxes_[static_cast<std::size_t>(box_id)];
  if (!box.puts.empty()) {
    const Put put = box.puts.front();
    box.puts.pop_front();
    return match(box, put, ctx.host());
  }
  slot.dst_host = ctx.host();
  slot.matched = engine_.make_gate();
  box.gets.push_back(&slot);
  return nullptr;
}

Request Mailboxes::isend(sim::Ctx& ctx, BoxId box_id, double bytes) {
  Box& box = boxes_[static_cast<std::size_t>(box_id)];
  if (!box.gets.empty()) {
    // A receiver is already posted: the transfer starts now, and the comm
    // itself serves as the request.  The chained-gate indirection is only
    // needed when the put sits queued (its request must exist before the
    // comm does).  The sender registers on the comm before the woken
    // receiver resumes, so waiters still fire in the gate path's order, and
    // gates never enter the time heap, so the renumbered seq values leave
    // the heap's (key, seq) pop order untouched.
    RecvSlot* get = box.gets.front();
    box.gets.pop_front();
    if (obs::Sink* const sink = engine_.sink()) sink->on_mailbox_match(box.name, bytes);
    sim::ActivityPtr comm = engine_.make_comm(ctx.host(), get->dst_host, bytes);
    get->comm = comm;
    engine_.complete_now(get->matched);
    return comm;
  }
  box.puts.push_back(Put{ctx.host(), bytes, engine_.make_gate()});
  return box.puts.back().done;
}

void Mailboxes::send_async(sim::Ctx& ctx, BoxId box_id, double bytes) {
  Box& box = boxes_[static_cast<std::size_t>(box_id)];
  if (!box.gets.empty()) {
    RecvSlot* get = box.gets.front();
    box.gets.pop_front();
    if (obs::Sink* const sink = engine_.sink()) sink->on_mailbox_match(box.name, bytes);
    get->comm = engine_.make_comm(ctx.host(), get->dst_host, bytes);
    engine_.complete_now(get->matched);
    return;
  }
  box.puts.push_back(Put{ctx.host(), bytes, nullptr});
}

Rendezvous::Rendezvous(sim::Engine& engine, int parties)
    : engine_(engine), parties_(parties), gate_(engine.make_gate()) {
  TIR_ASSERT(parties >= 1);
}

sim::Coro Rendezvous::arrive_and_wait(sim::Ctx& ctx) {
  ++arrived_;
  if (arrived_ == parties_) {
    arrived_ = 0;
    const sim::ActivityPtr current = gate_;
    gate_ = engine_.make_gate();  // re-arm before waking the cohort
    engine_.complete_now(current);
    co_return;
  }
  co_await ctx.wait(gate_);
}

}  // namespace tir::msg
