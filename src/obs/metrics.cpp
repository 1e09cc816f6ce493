#include "obs/metrics.hpp"

#include <fstream>

#include "base/error.hpp"
#include "platform/platform.hpp"

namespace tir::obs {

namespace {

/// Find-or-append by op name (a handful of collective types: linear scan).
CollectiveMetrics& collective_slot(std::vector<CollectiveMetrics>& all, const char* op) {
  for (CollectiveMetrics& c : all) {
    if (c.op == op) return c;
  }
  all.push_back(CollectiveMetrics{op, 0, 0.0, 0.0});
  return all.back();
}

/// Metrics numbers carry 12 significant digits.
Json num(double v) { return Json::number(v, 12); }

Json messages_and_bytes(std::uint64_t messages, double bytes) {
  return Json::object({{"messages", messages}, {"bytes", num(bytes)}});
}

}  // namespace

MetricsReport aggregate(const TimelineSink& timeline, double eager_threshold,
                        const platform::Platform* platform) {
  TIR_ASSERT(timeline.finalized());
  MetricsReport report;
  report.simulated_time = timeline.finalized_time();
  report.steps = timeline.steps();
  report.protocol = timeline.message_stats();
  report.diagnoses = timeline.diagnoses();

  report.ranks.resize(static_cast<std::size_t>(timeline.nranks()));
  for (int r = 0; r < timeline.nranks(); ++r) {
    RankMetrics& m = report.ranks[static_cast<std::size_t>(r)];
    m.name = timeline.rank_name(r);
    for (const Interval& iv : timeline.intervals(r)) {
      m.by_state[static_cast<std::size_t>(iv.state)] += iv.duration();
      if (iv.state != RankState::Idle) ++m.actions;
      switch (iv.state) {
        case RankState::Send:
          ++m.messages;
          m.bytes_sent += iv.bytes;
          if (iv.bytes < eager_threshold) {
            ++m.eager_messages;
            m.eager_bytes += iv.bytes;
          } else {
            ++m.rendezvous_messages;
            m.rendezvous_bytes += iv.bytes;
          }
          break;
        case RankState::Collective: {
          CollectiveMetrics& c = collective_slot(report.collectives, iv.op);
          ++c.sites;
          c.seconds += iv.duration();
          c.bytes += iv.bytes;
          break;
        }
        default:
          break;
      }
    }
    report.total_compute += m.compute_seconds();
    report.total_comm += m.comm_seconds();
    report.total_wait += m.wait_seconds();
  }

  const std::vector<LinkUsage>& usage = timeline.link_usage();
  for (std::size_t l = 0; l < usage.size(); ++l) {
    if (usage[l].bytes <= 0.0 && usage[l].busy_seconds <= 0.0) continue;
    LinkMetrics lm;
    lm.link = static_cast<int>(l);
    lm.busy_seconds = usage[l].busy_seconds;
    lm.bytes = usage[l].bytes;
    if (platform != nullptr && l < platform->link_count()) {
      const platform::Link& link = platform->link(static_cast<platform::LinkId>(l));
      lm.name = link.name;
      if (link.bandwidth > 0.0 && report.simulated_time > 0.0) {
        lm.utilization = lm.bytes / (link.bandwidth * report.simulated_time);
      }
    }
    report.links.push_back(std::move(lm));
  }
  return report;
}

Json to_json(const MetricsReport& report) {
  Json ranks = Json::array();
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const RankMetrics& m = report.ranks[r];
    Json by_state = Json::object();
    for (std::size_t s = 0; s < kRankStateCount; ++s) {
      by_state.set(rank_state_name(static_cast<RankState>(s)), num(m.by_state[s]));
    }
    ranks.push_back(Json::object(
        {{"rank", r}, {"name", m.name}, {"compute", num(m.compute_seconds())},
         {"comm", num(m.comm_seconds())}, {"wait", num(m.wait_seconds())},
         {"by_state", std::move(by_state)}, {"actions", m.actions}, {"messages", m.messages},
         {"bytes_sent", num(m.bytes_sent)},
         {"eager", messages_and_bytes(m.eager_messages, m.eager_bytes)},
         {"rendezvous", messages_and_bytes(m.rendezvous_messages, m.rendezvous_bytes)}}));
  }
  Json collectives = Json::array();
  for (const CollectiveMetrics& c : report.collectives) {
    collectives.push_back(Json::object({{"op", c.op}, {"sites", c.sites},
                                        {"seconds", num(c.seconds)}, {"bytes", num(c.bytes)}}));
  }
  Json links = Json::array();
  for (const LinkMetrics& l : report.links) {
    links.push_back(Json::object({{"link", l.link}, {"name", l.name},
                                  {"busy_seconds", num(l.busy_seconds)}, {"bytes", num(l.bytes)},
                                  {"utilization", num(l.utilization)}}));
  }
  Json diagnostics = Json::array();
  for (const Diagnosis& d : report.diagnoses) {
    diagnostics.push_back(Json::object(
        {{"actor", d.actor}, {"name", d.name}, {"time", num(d.time)}, {"state", d.text}}));
  }
  Json out = Json::object({{"simulated_time", num(report.simulated_time)},
                           {"engine_steps", report.steps},
                           {"totals", Json::object({{"compute", num(report.total_compute)},
                                                    {"comm", num(report.total_comm)},
                                                    {"wait", num(report.total_wait)}})}});
  out.set("ranks", std::move(ranks));
  out.set("collectives", std::move(collectives));
  out.set("links", std::move(links));
  const TimelineSink::MessageStats& p = report.protocol;
  out.set("protocol",
          Json::object(
              {{"eager", messages_and_bytes(p.eager_messages, p.eager_bytes)},
               {"rendezvous", messages_and_bytes(p.rendezvous_messages, p.rendezvous_bytes)},
               {"collective_internal",
                messages_and_bytes(p.collective_messages, p.collective_bytes)}}));
  out.set("diagnostics", std::move(diagnostics));
  return out;
}

void write_json(const MetricsReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open " + path + " for writing");
  const std::string body = to_json(report).dump() + "\n";
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  out.flush();
  if (!out) throw Error("failed writing " + path);
}

}  // namespace tir::obs
