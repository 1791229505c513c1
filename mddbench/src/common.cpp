#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "diag/metrics.hpp"
#include "workload/textio.hpp"

namespace mddbench {

using mdd::server::Json;
using mdd::server::JsonArray;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double pid_peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream refs("/proc/self/clear_refs");
  refs << "5";  // 5: reset the peak RSS (proc(5))
  refs.flush();
  return static_cast<bool>(refs);
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string display_to_spec(const std::string& shown) {
  static const std::map<std::string, std::string> kinds = {
      {"SA0", "sa0"},      {"SA1", "sa1"},     {"BR-DOM", "dom"},
      {"BR-WAND", "wand"}, {"BR-WOR", "wor"},  {"STR", "str"},
      {"STF", "stf"}};
  const std::size_t space = shown.find(' ');
  const auto kind = kinds.find(shown.substr(0, space));
  if (space == std::string::npos || kind == kinds.end())
    throw std::runtime_error("unexpected fault '" + shown + "'");
  std::string site = shown.substr(space + 1);
  if (const std::size_t arrow = site.find("->"); arrow != std::string::npos)
    site.replace(arrow, 2, " ");
  else if (const std::size_t tilde = site.find('~'); tilde != std::string::npos)
    site[tilde] = ' ';
  else if (const std::size_t pin = site.rfind(".pin"); pin != std::string::npos)
    site = site.substr(0, pin + 1) +
           site.substr(pin + 4, site.find('(', pin) - pin - 4);
  return kind->second + " " + site;
}

// ---------------------------------------------------------------- spans

long SpanLog::add(std::string name, double start_ms, double end_ms,
                  long parent, long request) {
  spans_.push_back({std::move(name), start_ms, end_ms, parent, request});
  return static_cast<long>(spans_.size() - 1);
}

std::vector<double> SpanLog::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ms - spans_[i].start_ms;
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_ms - s.start_ms;
  return self;
}

std::map<std::string, double> SpanLog::self_ms_by_name() const {
  std::map<std::string, double> out;
  const std::vector<double> self = self_ms();
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += self[i];
  return out;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    Json j;
    j.set("name", s.name);
    j.set("start_ms", s.start_ms);
    j.set("end_ms", s.end_ms);
    j.set("parent", static_cast<long long>(s.parent));
    j.set("request", static_cast<long long>(s.request));
    out << j.dump() << "\n";
  }
}

// ------------------------------------------------------- counter deltas

CounterDelta::CounterDelta(const mdd::obs::Snapshot& before,
                           const mdd::obs::Snapshot& after) {
  for (const auto& c : after.counters)
    counters_[c.name] = static_cast<double>(c.value);
  for (const auto& c : before.counters)
    counters_[c.name] -= static_cast<double>(c.value);
  for (const auto& h : after.histograms) {
    Hist& d = hists_[h.name];
    d.bounds = h.bounds;
    d.bins.assign(h.bins.begin(), h.bins.end());
    d.count = static_cast<double>(h.count);
    d.sum = h.sum;
  }
  for (const auto& h : before.histograms) {
    Hist& d = hists_[h.name];
    for (std::size_t i = 0; i < d.bins.size() && i < h.bins.size(); ++i)
      d.bins[i] -= static_cast<double>(h.bins[i]);
    d.count -= static_cast<double>(h.count);
    d.sum -= h.sum;
  }
}

CounterDelta::CounterDelta(const Json& before_metrics,
                           const Json& after_metrics) {
  const auto counters = [](const Json& m) {
    const Json* c = m.find("counters");
    return c != nullptr ? c->as_object() : mdd::server::JsonObject{};
  };
  for (const auto& [name, v] : counters(after_metrics))
    counters_[name] = v.as_number();
  for (const auto& [name, v] : counters(before_metrics))
    counters_[name] -= v.as_number();
  const auto hists = [](const Json& m) {
    const Json* h = m.find("histograms");
    return h != nullptr ? h->as_object() : mdd::server::JsonObject{};
  };
  for (const auto& [name, h] : hists(after_metrics)) {
    Hist& d = hists_[name];
    for (const Json& b : h.find("le")->as_array())
      d.bounds.push_back(b.as_number());
    for (const Json& b : h.find("bins")->as_array())
      d.bins.push_back(b.as_number());
    d.count = h.get_number("count");
    d.sum = h.get_number("sum");
  }
  for (const auto& [name, h] : hists(before_metrics)) {
    Hist& d = hists_[name];
    const JsonArray& bins = h.find("bins")->as_array();
    for (std::size_t i = 0; i < d.bins.size() && i < bins.size(); ++i)
      d.bins[i] -= bins[i].as_number();
    d.count -= h.get_number("count");
    d.sum -= h.get_number("sum");
  }
}

double CounterDelta::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double CounterDelta::histogram_sum(const std::string& name) const {
  const auto it = hists_.find(name);
  return it == hists_.end() ? 0.0 : it->second.sum;
}

double CounterDelta::histogram_quantile(const std::string& name,
                                        double q) const {
  const auto it = hists_.find(name);
  if (it == hists_.end() || it->second.count <= 0) return 0.0;
  const Hist& h = it->second;
  const double target = q * h.count;
  double below = 0;
  for (std::size_t i = 0; i < h.bins.size(); ++i) {
    if (h.bins[i] <= 0) continue;
    if (below + h.bins[i] >= target) {
      const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
      const double hi = i < h.bounds.size() ? h.bounds[i] : lo;
      return lo + (hi - lo) * (target - below) / h.bins[i];
    }
    below += h.bins[i];
  }
  return h.bounds.empty() ? 0.0 : h.bounds.back();
}

// ------------------------------------------------------ generated files

void write_generated(const std::string& dir, const Generated& g) {
  Json j;
  j.set("netlist", g.netlist_path);
  j.set("patterns", g.patterns_path);
  JsonArray cases;
  for (const Case& c : g.cases) {
    Json cj;
    JsonArray defect;
    for (const std::string& f : c.defect) defect.emplace_back(f);
    cj.set("defect", Json(std::move(defect)));
    cj.set("datalog", c.datalog);
    cases.push_back(std::move(cj));
  }
  j.set("cases", Json(std::move(cases)));
  JsonArray order;
  for (std::size_t i : g.order) order.emplace_back(i);
  j.set("order", Json(std::move(order)));
  j.set("warmup", g.warmup);
  j.set("batch", g.batch);
  std::ofstream out(dir + "/cases.json");
  out << j.dump() << "\n";
  if (!out) throw std::runtime_error("cannot write " + dir + "/cases.json");
}

Generated read_generated(const std::string& dir) {
  std::ifstream in(dir + "/cases.json");
  if (!in) throw std::runtime_error("missing " + dir + "/cases.json");
  std::stringstream text;
  text << in.rdbuf();
  const Json j = Json::parse(text.str());
  Generated g;
  g.netlist_path = j.get_string("netlist");
  g.patterns_path = j.get_string("patterns");
  for (const Json& cj : j.find("cases")->as_array()) {
    Case c;
    for (const Json& f : cj.find("defect")->as_array())
      c.defect.push_back(f.as_string());
    c.datalog = cj.get_string("datalog");
    g.cases.push_back(std::move(c));
  }
  for (const Json& i : j.find("order")->as_array())
    g.order.push_back(static_cast<std::size_t>(i.as_int()));
  g.warmup = static_cast<std::size_t>(j.get_number("warmup"));
  g.batch = static_cast<std::size_t>(j.get_number("batch"));
  if (g.cases.empty() || g.order.empty())
    throw std::runtime_error(dir + "/cases.json holds no cases");
  return g;
}

// ---------------------------------------------------------- answer book

AnswerBook::AnswerBook(const mdd::Netlist& netlist,
                       const mdd::PatternSet& patterns,
                       const mdd::PatternSet& good,
                       const std::vector<Case>& cases)
    : netlist_(netlist),
      reference_(netlist, patterns, good),
      collapsed_(netlist),
      cases_(cases) {}

void AnswerBook::fail(std::string why) {
  if (failures_++ == 0) first_failure_ = std::move(why);
}

bool AnswerBook::record(std::size_t c, const Json& reports) {
  std::string bytes = reports.dump();
  if (const auto it = answers_.find(c); it != answers_.end()) {
    if (it->second == bytes) return true;
    fail("case " + std::to_string(c) + ": report differs from its first answer");
    return false;
  }
  const JsonArray& list = reports.as_array();
  if (list.empty() || !list.front().is_object()) {
    fail("case " + std::to_string(c) + ": no report");
    return false;
  }
  const Json& report = list.front();
  std::istringstream log_text(cases_[c].datalog);
  const mdd::Datalog log = mdd::read_datalog(log_text, netlist_);

  mdd::DiagnosisReport parsed;
  for (const Json& s : report.find("suspects")->as_array()) {
    mdd::ScoredCandidate sc;
    sc.fault = mdd::parse_fault_spec(display_to_spec(s.get_string("fault")),
                                     netlist_);
    for (const Json& alt : s.find("alternates")->as_array())
      sc.alternates.push_back(
          mdd::parse_fault_spec(display_to_spec(alt.as_string()), netlist_));
    parsed.suspects.push_back(std::move(sc));
  }
  const bool explains_all = report.get_bool("explains_all");
  if (explains_all) {
    const std::vector<mdd::Fault> multiplet = parsed.suspect_faults();
    const mdd::ErrorSignature simulated = mdd::restrict_signature(
        reference_.signature(multiplet), log.n_patterns_applied);
    if (simulated != mdd::restrict_signature(log.observed,
                                             log.n_patterns_applied)) {
      fail("case " + std::to_string(c) +
           ": explains_all multiplet does not re-simulate to the datalog");
      return false;
    }
  }
  std::vector<mdd::Fault> injected;
  for (const std::string& f : cases_[c].defect)
    injected.push_back(mdd::parse_fault_spec(f, netlist_));
  hit_[c] = mdd::evaluate_against_truth(parsed, injected, collapsed_).hit_rate;
  exact_[c] = explains_all;
  answers_.emplace(c, std::move(bytes));
  return true;
}

double AnswerBook::hit_rate() const {
  double s = 0;
  for (const auto& [c, h] : hit_) s += h;
  return hit_.empty() ? 0.0 : s / static_cast<double>(hit_.size());
}

double AnswerBook::exact_rate() const {
  std::size_t n = 0;
  for (const auto& [c, e] : exact_) n += e ? 1 : 0;
  return exact_.empty() ? 0.0
                        : static_cast<double>(n) /
                              static_cast<double>(exact_.size());
}

std::uint64_t AnswerBook::digest() const {
  std::uint64_t h = fnv1a("");
  for (const auto& [c, bytes] : answers_) {
    h = fnv1a(std::to_string(c) + ":", h);
    h = fnv1a(bytes, h);
  }
  return h;
}

void Result::take_answers(const AnswerBook& book) {
  hit_rate = book.hit_rate();
  exact_rate = book.exact_rate();
  detail.set("hit_rate", hit_rate);
  detail.set("exact_rate", exact_rate);
  detail.set("distinct_datalogs", book.n_answered());
  detail.set("report_digest", std::to_string(book.digest()));
  if (book.n_failures() > 0) detail.set("first_failure", book.first_failure());
}

}  // namespace mddbench
