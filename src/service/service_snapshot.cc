#include "service/service_snapshot.h"

#include <algorithm>

#include "common/deadline.h"
#include "common/strings.h"
#include "obs/admin_server.h"

namespace frt {

std::chrono::steady_clock::time_point StaleAfter(const ServiceSnapshot& s) {
  if (s.finished) return kNever;
  return DueAfter(s.published_at,
                  std::max<int64_t>(5 * s.metrics_interval_ms, 5000));
}

std::string RenderFeedz(const ServiceSnapshot& s) {
  std::string out = StrFormat(
      "{\"seq\":%llu,\"uptime_ms\":%lld,\"finished\":%s,\"aborted\":%s,"
      "\"feeds\":%zu,\"active_sessions\":%zu,\"queue_depth\":%zu,"
      "\"backlog_windows\":%zu,\"in_flight\":%zu,"
      "\"feeds_quarantined\":%zu,\"feed\":[",
      static_cast<unsigned long long>(s.seq),
      static_cast<long long>(s.uptime_ms), s.finished ? "true" : "false",
      s.aborted ? "true" : "false", s.feeds, s.active_sessions,
      s.queue_depth, s.backlog_windows, s.in_flight, s.feeds_quarantined);
  bool first = true;
  for (const ServiceSnapshot::Feed& feed : s.feeds_detail) {
    if (!first) out += ',';
    first = false;
    out += StrFormat(
        "{\"feed\":\"%s\",\"eps_spent\":\"%.6f\",\"eps_remaining\":\"%g\","
        "\"windows_published\":%zu,\"windows_refused\":%zu,\"backlog\":%zu,"
        "\"quarantined\":%s",
        obs::JsonEscape(feed.feed).c_str(), feed.stream.epsilon_spent,
        feed.epsilon_remaining, feed.stream.windows_published,
        feed.stream.windows_refused, feed.backlog,
        feed.quarantined ? "true" : "false");
    if (feed.quarantined) {
      out += ",\"quarantine_reason\":\"" +
             obs::JsonEscape(feed.quarantine_reason) + "\"";
    }
    out += '}';
  }
  out += "]}\n";
  return out;
}

}  // namespace frt
