// Figure 2: OPC UA hosts found per weekly measurement, split into discovery
// servers and servers attributed to manufacturers (via ApplicationURI
// clustering), with the follow-references / non-default-port additions.
#include <cstdio>

#include "bench_common.hpp"
#include "report/report.hpp"
#include "util/date.hpp"

using namespace opcua_study;

int main() {
  const StudyAnalysis analysis = bench::run_analysis();
  const LongitudinalStats& stats = analysis.longitudinal;

  TextTable table;
  table.set_header({"measurement", "total", "discovery", "servers", "Bachmann", "Beckhoff",
                    "Wago", "other", "via refs", "non-4840"});
  for (const auto& week : stats.weeks) {
    auto cluster = [&week](const char* name) {
      const auto it = week.by_manufacturer.find(name);
      return it == week.by_manufacturer.end() ? 0 : it->second;
    };
    int named = cluster("Bachmann") + cluster("Beckhoff") + cluster("Wago");
    table.add_row({format_date(civil_from_days(week.date_days)),
                   fmt_int(week.servers + week.discovery), fmt_int(week.discovery),
                   fmt_int(week.servers), fmt_int(cluster("Bachmann")),
                   fmt_int(cluster("Beckhoff")), fmt_int(cluster("Wago")),
                   fmt_int(week.servers - named), fmt_int(week.via_reference),
                   fmt_int(week.non_default_port)});
  }
  std::puts("Figure 2: OPC UA hosts per measurement (reproduced)\n");
  std::fputs(table.str().c_str(), stdout);

  std::puts("\nhosts over time:");
  for (const auto& week : stats.weeks) {
    const int total = week.servers + week.discovery;
    std::printf("%s %s %4d\n", format_date(civil_from_days(week.date_days)).c_str(),
                render_bar(total, 2100).c_str(), total);
  }

  const auto& last = stats.weeks.back();
  const double discovery_share =
      static_cast<double>(last.discovery) / static_cast<double>(last.discovery + last.servers);
  const auto& first = stats.weeks.front();
  int min_total = 1 << 30, max_total = 0;
  for (const auto& week : stats.weeks) {
    min_total = std::min(min_total, week.servers + week.discovery);
    max_total = std::max(max_total, week.servers + week.discovery);
  }
  std::vector<ComparisonRow> rows = {
      compare_num("servers at last measurement", 1114, last.servers, 0),
      compare_num("minimum weekly total", 1761, min_total, 0),
      compare_num("maximum weekly total", 2069, max_total, 0),
      {"discovery share (last)", "42%", fmt_pct(discovery_share, 1),
       std::abs(discovery_share - 0.42) < 0.01},
      compare_num("Bachmann devices (last)", 406, last.by_manufacturer.at("Bachmann"), 0),
      compare_num("Beckhoff devices (last)", 112, last.by_manufacturer.at("Beckhoff"), 0),
      compare_num("Wago devices (last)", 78, last.by_manufacturer.at("Wago"), 0),
      compare_num("first measurement servers", 1040, first.servers, 0),
  };
  return bench::print_comparison("Figure 2 vs paper", rows);
}
