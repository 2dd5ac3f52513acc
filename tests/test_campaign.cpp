// Campaign subsystem (src/campaign/): content hashing, manifest file
// round-trips, crash-resume via the result store, and the
// capture-once/replay-many guarantee -- replayed records must be
// bit-identical to standalone runs of the same trace, and the record bytes
// must not depend on thread count or on where a run was killed.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/grids.hpp"
#include "campaign/manifest.hpp"
#include "campaign/result_store.hpp"
#include "campaign/runner.hpp"
#include "common/json.hpp"
#include "noc/experiment.hpp"
#include "noc/workload.hpp"

using namespace noc;
using namespace noc::campaign;

namespace {

std::string fresh_root(const std::string& name, const Manifest& m) {
  const std::string root = ::testing::TempDir() + "campaign_" + name;
  // Tests may rerun in a dirty TempDir: wipe any records from a previous
  // invocation so "executed" counts are deterministic.
  ResultStore store(root);
  (void)store.remove_campaign(m);
  return root;
}

// Record files for every resolved point of `m`, concatenated in manifest
// order -- one string to diff across runs.
std::string all_record_bytes(const Manifest& m, const ResultStore& store) {
  std::string err;
  const auto points = resolve_manifest(m, &err);
  EXPECT_FALSE(points.empty()) << err;
  std::string all;
  for (const auto& p : points) {
    const std::string bytes =
        json::read_file(store.record_path(p.point->id, p.hash));
    EXPECT_FALSE(bytes.empty()) << "missing record for " << p.point->id;
    all += bytes;
  }
  return all;
}

// A tiny capture-once/replay-many ablation: one open-loop capture replayed
// across three router pipelines. Open-loop capture keeps the test fast and
// replay-exact at these window sizes.
Manifest tiny_ablation_manifest() {
  Manifest m;
  m.name = "test-ablation";
  m.default_warmup = 200;
  m.default_window = 600;
  CampaignPoint cap;
  cap.id = "capture/uniform";
  cap.kind = PointKind::Capture;
  cap.k = 4;
  cap.pattern = TrafficPattern::MixedPaper;
  cap.offered = 0.08;
  cap.seed = 11;
  m.points.push_back(cap);
  const PipelinePreset presets[] = {PipelinePreset::Proposed,
                                    PipelinePreset::Baseline3,
                                    PipelinePreset::Baseline4};
  for (PipelinePreset p : presets) {
    CampaignPoint rep;
    rep.id = std::string("replay/") + pipeline_preset_name(p);
    rep.kind = PointKind::Replay;
    rep.pipeline = p;
    rep.k = 4;
    rep.trace_from = cap.id;
    m.points.push_back(rep);
  }
  return m;
}

// The seven built-in grid variants behind the pinned hashes, in pin order.
std::vector<std::pair<std::string, Manifest>> built_in_grids() {
  return {{"design-space k=4", design_space_manifest(4)},
          {"design-space k=8, 2 step threads", design_space_manifest(8, 2)},
          {"large-k", large_k_manifest(false)},
          {"large-k --short", large_k_manifest(true)},
          {"smoke", smoke_manifest()},
          {"trace-ablation k=4", trace_ablation_manifest(4)},
          {"trace-ablation k=16", trace_ablation_manifest(16)}};
}

std::string fnv1a_hex(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

// Every CampaignPoint member, for whole-point comparisons.
auto point_fields(const CampaignPoint& p) {
  return std::tie(p.id, p.kind, p.pipeline, p.k, p.ky, p.policy,
                  p.request_vcs, p.response_vcs, p.gating, p.step_threads,
                  p.workload, p.pattern, p.offered, p.identical_prbs, p.seed,
                  p.mshr_window, p.issue_prob, p.directory_latency,
                  p.think_time, p.fault_links, p.fault_degrade, p.fault_seed,
                  p.fault_kill_at, p.fault_revive_after, p.telemetry,
                  p.telemetry_sample_every, p.warmup, p.window, p.trace_from);
}

// Every keyword off its default: an open-loop capture sets all but
// workload and trace-from, and a replay of it on the same mesh sets those
// two.
Manifest every_keyword_manifest() {
  Manifest m;
  m.name = "every-keyword";
  m.default_warmup = 123;
  m.default_window = 456;
  CampaignPoint cap;
  cap.id = "capture/open";
  cap.kind = PointKind::Capture;
  cap.pipeline = PipelinePreset::Baseline4;
  cap.k = 6;
  cap.ky = 3;
  cap.policy = RoutePolicy::O1Turn;
  cap.request_vcs = 6;
  cap.response_vcs = 4;
  cap.gating = false;
  cap.step_threads = 2;
  cap.pattern = TrafficPattern::BitComplement;
  cap.offered = 0.25;
  cap.identical_prbs = true;
  cap.seed = 9;
  cap.mshr_window = 8;
  cap.issue_prob = 0.5;
  cap.directory_latency = 3;
  cap.think_time = 1;
  cap.fault_links = 2;
  cap.fault_degrade = 1;
  cap.fault_seed = 5;
  cap.fault_kill_at = 100;
  cap.fault_revive_after = 50;
  cap.telemetry = true;
  cap.telemetry_sample_every = 25;
  cap.warmup = 300;
  cap.window = 700;
  m.points.push_back(cap);
  CampaignPoint rep;
  rep.id = "replay/proposed";
  rep.kind = PointKind::Replay;
  rep.k = cap.k;
  rep.ky = cap.ky;
  rep.workload = WorkloadKind::Trace;
  rep.trace_from = cap.id;
  m.points.push_back(rep);
  return m;
}

// Header and an open `point p` stanza (lines 1-3) for load tests.
const std::string kOnePoint = "# noc-campaign v1\ncampaign t\npoint p\n";

// Writes `text` to `path` and loads it: the manifest (or nullptr) and the
// diagnostic.
std::pair<std::shared_ptr<Manifest>, std::string> load_text(
    const std::string& path, const std::string& text) {
  std::ofstream(path) << text;
  std::string err;
  auto m = load_manifest(path, &err);
  return {std::move(m), err};
}

}  // namespace

TEST(CampaignManifest, SameManifestResolvesToIdenticalHashes) {
  const Manifest a = smoke_manifest();
  const Manifest b = smoke_manifest();
  std::string err;
  const auto pa = resolve_manifest(a, &err);
  ASSERT_FALSE(pa.empty()) << err;
  const auto pb = resolve_manifest(b, &err);
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].key, pb[i].key) << pa[i].point->id;
    EXPECT_EQ(pa[i].hash, pb[i].hash) << pa[i].point->id;
    EXPECT_EQ(pa[i].hash.size(), 16u);
  }
}

TEST(CampaignManifest, BuiltInGridHashesAreByteStable) {
  // Result stores key records by these hashes, so the canonical key must
  // not move across builds. Per grid variant: FNV-1a-64 over its points'
  // hashes concatenated in manifest order.
  const char* const pins[] = {"819fb9e4aede66de", "9db0108008de4e2e",
                              "9e51b61e09933545", "480ad590eb4c469f",
                              "6ab6ed29bf1cb485", "a4b29ca1ed7cb637",
                              "f4977ad28ba34b75"};
  const auto grids = built_in_grids();
  ASSERT_EQ(grids.size(), std::size(pins));
  std::string all;
  size_t num_points = 0;
  for (size_t g = 0; g < grids.size(); ++g) {
    std::string err;
    const auto points = resolve_manifest(grids[g].second, &err);
    ASSERT_FALSE(points.empty()) << grids[g].first << ": " << err;
    std::string hashes;
    for (const auto& p : points) hashes += p.hash;
    EXPECT_EQ(fnv1a_hex(hashes), pins[g]) << grids[g].first;
    all += hashes;
    num_points += points.size();
  }
  EXPECT_EQ(num_points, 110u);
  EXPECT_EQ(fnv1a_hex(all), "76b775f81939d1fd");

  // The smoke grid covers all four point kinds, the MixedPaper fractions
  // and the closed-loop response length; its per-point hashes name the
  // point that moved.
  const std::pair<const char*, const char*> golden[] = {
      {"measure/k=2", "b04f0f3cfe87a109"},
      {"measure/k=4-mixed", "c7b1c053f2b8f831"},
      {"saturation/k=2", "818664db64abb20d"},
      {"capture/k=4", "b2a342066d13b70b"},
      {"replay/baseline3", "b8027af5316e8973"},
      {"replay/baseline4", "090614b48e60c59e"},
  };
  const Manifest smoke = smoke_manifest();
  std::string err;
  const auto points = resolve_manifest(smoke, &err);
  ASSERT_EQ(points.size(), std::size(golden)) << err;
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].point->id, golden[i].first);
    EXPECT_EQ(points[i].hash, golden[i].second) << points[i].key;
  }
}

TEST(CampaignManifest, FileRoundTripKeepsEveryFieldAndHash) {
  // Every built-in grid, plus one manifest that moves every keyword off its
  // default -- including closed-loop knobs on an open-loop point, which
  // feed the key even though that point never reads them.
  auto manifests = built_in_grids();
  manifests.emplace_back("every keyword", every_keyword_manifest());
  const std::string path = ::testing::TempDir() + "campaign_roundtrip.campaign";
  for (const auto& [name, m] : manifests) {
    ASSERT_TRUE(save_manifest(path, m)) << name;
    const std::string text = json::read_file(path);
    std::string err;
    const auto loaded = load_manifest(path, &err);
    ASSERT_NE(loaded, nullptr) << name << ": " << err;
    EXPECT_EQ(loaded->name, m.name);
    EXPECT_EQ(loaded->default_warmup, m.default_warmup) << name;
    EXPECT_EQ(loaded->default_window, m.default_window) << name;
    ASSERT_EQ(loaded->points.size(), m.points.size()) << name;
    for (size_t i = 0; i < m.points.size(); ++i)
      EXPECT_TRUE(point_fields(loaded->points[i]) == point_fields(m.points[i]))
          << name << ": " << m.points[i].id;
    const auto pa = resolve_manifest(m, &err);
    const auto pb = resolve_manifest(*loaded, &err);
    ASSERT_EQ(pa.size(), pb.size()) << name << ": " << err;
    for (size_t i = 0; i < pa.size(); ++i)
      EXPECT_EQ(pa[i].hash, pb[i].hash) << name << ": " << pa[i].point->id;
    // The second trip writes the same bytes.
    ASSERT_TRUE(save_manifest(path, *loaded)) << name;
    EXPECT_EQ(json::read_file(path), text) << name;
  }
  // Only non-default keys are written: the every-keyword manifest's first
  // point sets all of them but workload and trace-from.
  const std::string text = json::read_file(path);
  const size_t first = text.find("\npoint ");
  const size_t end = text.find("\nend\n", first);
  ASSERT_NE(end, std::string::npos) << text;
  size_t keyword_lines = 0;
  for (size_t i = text.find("\n  ", first); i < end;
       i = text.find("\n  ", i + 1))
    ++keyword_lines;
  EXPECT_EQ(keyword_lines, 26u) << text;
  std::remove(path.c_str());
}

TEST(CampaignManifest, MalformedNumbersFailWithFileAndLine) {
  // Numbers must be whole tokens that fit their field: a prefix parse
  // would load "5o0" as 5 and "0.05x" as 0.05 and move the point hashes.
  const std::string path = ::testing::TempDir() + "campaign_badnum.campaign";
  auto load_with = [&](const std::string& campaign_line,
                       const std::string& point_line) {
    std::ofstream(path) << "# noc-campaign v1\n"
                        << "campaign badnum\n"
                        << campaign_line << "\n"
                        << "point p\n"
                        << "  kind measure\n"
                        << point_line << "\n"
                        << "end\n";
    std::string err;
    const auto m = load_manifest(path, &err);
    return std::make_pair(m, err);
  };
  const auto [good, good_err] = load_with("window 500", "  offered 0.05");
  ASSERT_NE(good, nullptr) << good_err;
  EXPECT_EQ(good->default_window, 500);
  EXPECT_EQ(good->points[0].offered, 0.05);

  const std::pair<std::string, std::string> bad[] = {
      {"window 5o0", "  offered 0.05"},      // line 3
      {"window 500", "  offered 0.05x"},     // line 6
      {"window 500", "  k 99999999999"},     // line 6: does not fit an int
      {"window 500", "  seed -1"},           // line 6: unsigned field
      {"window", "  offered 0.05"},          // line 3: no number at all
  };
  for (const auto& [campaign_line, point_line] : bad) {
    const auto [m, err] = load_with(campaign_line, point_line);
    EXPECT_EQ(m, nullptr) << campaign_line << " / " << point_line;
    const char* line = campaign_line == "window 500" ? ":6: " : ":3: ";
    EXPECT_EQ(err.rfind(path + line, 0), 0u) << err;
  }
  std::remove(path.c_str());
}

TEST(CampaignManifest, ValuesThatWouldAbortARunFailToLoad) {
  // Each of these once loaded -- `campaign status` accepted it -- and then
  // aborted `campaign run` or simulated another mesh than it hashed.
  const std::string path = ::testing::TempDir() + "campaign_bounds.campaign";
  const std::pair<const char*, const char*> bad[] = {
      {"offered -0.1", "offered"},
      {"request-vcs 20", "request-vcs"},
      {"request-vcs 15", "request-vcs"},  // + the preset's 2 response VCs
      {"ky -3", "ky"},
      // Patterns that index the mesh as k x k.
      {"ky 2\n  pattern tornado", "pattern"},
      {"ky 2\n  pattern transpose", "pattern"},
      {"ky 2\n  pattern nearest-neighbor", "pattern"},
  };
  for (const auto& [line, keyword] : bad) {
    const auto [m, err] = load_text(path, kOnePoint + "  " + line + "\nend\n");
    EXPECT_EQ(m, nullptr) << line;
    EXPECT_EQ(err.rfind(path + ":", 0), 0u) << err;
    EXPECT_NE(err.find("point 'p'"), std::string::npos) << err;
    EXPECT_NE(err.find(std::string("'") + keyword + "'"), std::string::npos)
        << err;
  }
  std::remove(path.c_str());
}

TEST(CampaignManifest, ReplayOnAnotherMeshFailsToLoad) {
  // The trace carries its capture's geometry, so such a replay could only
  // fail after its capture had run.
  const std::string path = ::testing::TempDir() + "campaign_mesh.campaign";
  const auto [m, err] =
      load_text(path, kOnePoint + "  kind capture\nend\n"
                                  "point r\n  kind replay\n  k 8\n"
                                  "  trace-from p\nend\n");
  EXPECT_EQ(m, nullptr);
  EXPECT_EQ(err.rfind(path + ": point 'r': ", 0), 0u) << err;
  std::remove(path.c_str());
}

TEST(CampaignManifest, UnknownNamesFailWithTheirKeyword) {
  const std::string path = ::testing::TempDir() + "campaign_names.campaign";
  const std::pair<const char*, const char*> bad[] = {
      {"kind sometimes", "kind"},   {"pipeline 5-stage", "pipeline"},
      {"policy zigzag", "policy"},  {"workload batch", "workload"},
      {"pattern spiral", "pattern"}, {"gating maybe", "gating"},
  };
  for (const auto& [line, keyword] : bad) {
    const auto [m, err] = load_text(path, kOnePoint + "  " + line + "\nend\n");
    EXPECT_EQ(m, nullptr) << line;
    EXPECT_EQ(err.rfind(path + ":4: ", 0), 0u) << err;
    EXPECT_NE(err.find(std::string("'") + keyword + "'"), std::string::npos)
        << err;
  }
  std::remove(path.c_str());
}

TEST(CampaignManifest, LongLinesKeepTheirLineNumbers) {
  // A line longer than any fixed read buffer is still one line: a long
  // comment loads, and an error after it names its true line.
  const std::string path = ::testing::TempDir() + "campaign_long.campaign";
  const std::string comment = "# " + std::string(600, 'x') + "\n";
  const auto [good, good_err] =
      load_text(path, kOnePoint + comment + "  offered 0.05\nend\n");
  ASSERT_NE(good, nullptr) << good_err;
  EXPECT_EQ(good->points[0].offered, 0.05);
  const auto [bad, bad_err] =
      load_text(path, kOnePoint + comment + "  offered 0.05x\nend\n");
  EXPECT_EQ(bad, nullptr);
  EXPECT_EQ(bad_err.rfind(path + ":5: ", 0), 0u) << bad_err;
  std::remove(path.c_str());
}

TEST(CampaignManifest, HashTracksConfigAndDependencyChanges) {
  Manifest m = smoke_manifest();
  std::string err;
  const auto base = resolve_manifest(m, &err);
  ASSERT_FALSE(base.empty()) << err;

  // A knob change on one point moves exactly that point's hash.
  Manifest knob = smoke_manifest();
  knob.points[0].offered += 0.01;
  const auto moved = resolve_manifest(knob, &err);
  ASSERT_EQ(moved.size(), base.size());
  EXPECT_NE(moved[0].hash, base[0].hash);
  for (size_t i = 1; i < base.size(); ++i)
    EXPECT_EQ(moved[i].hash, base[i].hash) << base[i].point->id;

  // A capture change cascades into every dependent replay's hash.
  Manifest recap = smoke_manifest();
  for (auto& p : recap.points)
    if (p.kind == PointKind::Capture) p.seed += 1;
  const auto cascaded = resolve_manifest(recap, &err);
  ASSERT_EQ(cascaded.size(), base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    const PointKind kind = base[i].point->kind;
    if (kind == PointKind::Capture || kind == PointKind::Replay)
      EXPECT_NE(cascaded[i].hash, base[i].hash) << base[i].point->id;
    else
      EXPECT_EQ(cascaded[i].hash, base[i].hash) << base[i].point->id;
  }
}

TEST(CampaignRunner, RecordsBitIdenticalSerialVsParallel) {
  const Manifest m = smoke_manifest();
  ResultStore serial(fresh_root("serial", m));
  ResultStore parallel(fresh_root("parallel", m));

  RunOptions opt;
  opt.threads = 1;
  const RunSummary rs = run_campaign(m, serial, opt);
  ASSERT_TRUE(rs.complete()) << (rs.errors.empty() ? "" : rs.errors[0]);
  EXPECT_EQ(rs.executed, static_cast<int>(m.points.size()));

  opt.threads = 4;
  const RunSummary rp = run_campaign(m, parallel, opt);
  ASSERT_TRUE(rp.complete()) << (rp.errors.empty() ? "" : rp.errors[0]);

  EXPECT_EQ(all_record_bytes(m, serial), all_record_bytes(m, parallel));
}

TEST(CampaignRunner, KillAndResumeSkipsCompletedPoints) {
  const Manifest m = smoke_manifest();
  ResultStore oneshot(fresh_root("oneshot", m));
  ResultStore resumed(fresh_root("resumed", m));

  RunOptions opt;
  opt.threads = 2;
  ASSERT_TRUE(run_campaign(m, oneshot, opt).complete());

  // "Kill" after two points: max_points is the deterministic stand-in for
  // a campaign killed mid-run (runner.hpp).
  RunOptions cut = opt;
  cut.max_points = 2;
  const RunSummary first = run_campaign(m, resumed, cut);
  ASSERT_TRUE(first.ok()) << (first.errors.empty() ? "" : first.errors[0]);
  EXPECT_EQ(first.executed, 2);
  EXPECT_EQ(first.skipped, 0);
  EXPECT_GT(first.deferred, 0);

  // Resume: completed hashes are skipped, the rest run to completion.
  const RunSummary second = run_campaign(m, resumed, opt);
  ASSERT_TRUE(second.complete())
      << (second.errors.empty() ? "" : second.errors[0]);
  EXPECT_EQ(second.skipped, 2);
  EXPECT_EQ(second.executed,
            static_cast<int>(m.points.size()) - 2);

  // The kill point must not leak into any record byte.
  EXPECT_EQ(all_record_bytes(m, oneshot), all_record_bytes(m, resumed));

  // And a third run is a pure no-op.
  const RunSummary third = run_campaign(m, resumed, opt);
  EXPECT_TRUE(third.complete());
  EXPECT_EQ(third.executed, 0);
  EXPECT_EQ(third.skipped, static_cast<int>(m.points.size()));
}

TEST(CampaignRunner, CorruptRecordIsRerunNotTrusted) {
  const Manifest m = smoke_manifest();
  ResultStore store(fresh_root("corrupt", m));
  RunOptions opt;
  opt.threads = 2;
  ASSERT_TRUE(run_campaign(m, store, opt).complete());

  std::string err;
  const auto points = resolve_manifest(m, &err);
  ASSERT_FALSE(points.empty()) << err;
  const std::string victim =
      store.record_path(points[0].point->id, points[0].hash);
  const std::string good = json::read_file(victim);
  ASSERT_FALSE(good.empty());

  // Truncate the record mid-file: has_record must reject it and the next
  // run must re-execute exactly that point.
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out << good.substr(0, good.size() / 2);
  }
  EXPECT_FALSE(store.has_record(points[0].point->id, points[0].hash));
  const RunSummary again = run_campaign(m, store, opt);
  ASSERT_TRUE(again.complete());
  EXPECT_EQ(again.executed, 1);
  EXPECT_EQ(again.skipped, static_cast<int>(m.points.size()) - 1);
  EXPECT_EQ(json::read_file(victim), good);
}

TEST(CampaignRunner, ReplayRecordsMatchStandaloneTraceRuns) {
  const Manifest m = tiny_ablation_manifest();
  ResultStore store(fresh_root("ablation", m));
  RunOptions opt;
  opt.threads = 2;
  const RunSummary rs = run_campaign(m, store, opt);
  ASSERT_TRUE(rs.complete()) << (rs.errors.empty() ? "" : rs.errors[0]);

  std::string err;
  const auto points = resolve_manifest(m, &err);
  ASSERT_EQ(points.size(), 4u) << err;

  // One trace on disk, stamped with the capture's geometry.
  const std::string trace_file = store.trace_path(points[0].hash);
  std::string load_err;
  const auto trace = load_trace(trace_file, &load_err);
  ASSERT_NE(trace, nullptr) << load_err;
  EXPECT_EQ(trace->kx, 4);
  ASSERT_GT(trace->records.size(), 50u);

  // Each replay record must equal, byte for byte, a standalone
  // measure_workload over the same loaded trace -- the campaign layer adds
  // bookkeeping, never perturbation.
  for (size_t i = 1; i < points.size(); ++i) {
    NetworkConfig cfg = points[i].cfg;
    cfg.workload.trace.trace = trace;
    const PointResult r = measure_workload(cfg, points[i].measure);
    const CampaignRecord expect =
        make_record(m, points[i], point_report(r));
    EXPECT_EQ(ResultStore::serialize_record(expect),
              json::read_file(
                  store.record_path(points[i].point->id, points[i].hash)))
        << points[i].point->id;
  }
}

TEST(CampaignRunner, MaximumLengthIdsRoundTrip) {
  // valid_id accepts names and ids of up to 128 characters. A record that
  // lost part of its id would never load again: every run would re-execute
  // the point and gather would report it missing.
  Manifest m;
  m.name = std::string(128, 'c');
  m.default_warmup = 50;
  m.default_window = 200;
  CampaignPoint p;
  p.id = std::string(128, 'p');
  p.k = 2;
  p.offered = 0.05;
  m.points.push_back(p);
  ResultStore store(fresh_root("long_ids", m));

  const RunSummary first = run_campaign(m, store, {.threads = 1});
  ASSERT_TRUE(first.complete())
      << (first.errors.empty() ? "" : first.errors[0]);
  EXPECT_EQ(first.executed, 1);
  const RunSummary second = run_campaign(m, store, {.threads = 1});
  EXPECT_TRUE(second.complete());
  EXPECT_EQ(second.executed, 0);
  EXPECT_EQ(second.skipped, 1);

  std::string err;
  const auto points = resolve_manifest(m, &err);
  ASSERT_EQ(points.size(), 1u) << err;
  CampaignRecord rec;
  ASSERT_TRUE(store.load_record(p.id, points[0].hash, &rec));
  EXPECT_EQ(rec.point_id, p.id);
  EXPECT_EQ(rec.campaign, m.name);

  const std::string report = store.root() + "/long_ids_report.json";
  const GatherResult g = gather_campaign(m, store, report);
  EXPECT_TRUE(g.wrote);
  EXPECT_EQ(g.complete, 1);
  EXPECT_TRUE(g.missing.empty());
  const std::string row = "\"name\": \"" + m.name + "/" + p.id + "\",";
  EXPECT_NE(json::read_file(report).find(row), std::string::npos);
}

// The smoke grid's measure/k=2 record, byte for byte as result stores
// already hold it (written before records went through common/json.hpp).
constexpr char kPinnedRecord[] = R"({
  "schema": 1,
  "campaign": "smoke",
  "point": "measure/k=2",
  "kind": "measure",
  "hash": "b04f0f3cfe87a109",
  "status": "complete",
  "host": {
    "hardware_concurrency": 4,
    "thread_budget": 4
  },
  "report": {
    "items_per_second": 206000000,
    "offered_fpc": 0.050000000000000003,
    "avg_latency": 3.3980582524271843,
    "recv_flits_per_cycle": 0.20599999999999999,
    "recv_gbps": 13.183999999999999,
    "bypass_rate": 0.99586776859504134,
    "completed_packets": 103,
    "dropped_packets": 0,
    "max_ejection_load": 0.062,
    "max_bisection_load": 0.035999999999999997,
    "transactions": 0,
    "avg_transaction_latency": 0,
    "max_transaction_latency": 0,
    "transactions_per_cycle": 0,
    "closed_loop_window": 0,
    "avg_probe_latency": 0,
    "avg_response_latency": 0,
    "p50_latency": 3,
    "p95_latency": 4,
    "p99_latency": 4,
    "min_latency": 3,
    "max_latency": 5,
    "stall_buffer_empty": 0,
    "stall_no_free_vc": 0,
    "stall_no_credit": 0,
    "stall_lost_sa": 0,
    "stall_lost_va": 0,
    "xbar_traversals": 242,
    "link_traversals": 140,
    "buffer_writes": 1,
    "buffer_reads": 1,
    "vc_active_cycles": 243,
    "bypasses": 241,
    "buffered_hops": 1
  }
}
)";

TEST(CampaignStore, PinnedRecordLoadsAndReserializesByteForByte) {
  ResultStore store(::testing::TempDir() + "campaign_pinned");
  ASSERT_TRUE(store.ensure_dirs());
  const std::string id = "measure/k=2";
  const std::string hash = "b04f0f3cfe87a109";
  std::ofstream(store.record_path(id, hash), std::ios::binary)
      << kPinnedRecord;

  CampaignRecord rec;
  ASSERT_TRUE(store.load_record(id, hash, &rec));
  EXPECT_EQ(rec.schema, 1);
  EXPECT_EQ(rec.campaign, "smoke");
  EXPECT_EQ(rec.point_id, id);
  EXPECT_EQ(rec.kind, "measure");
  EXPECT_EQ(rec.hash, hash);
  EXPECT_EQ(rec.host.hardware_concurrency, 4u);
  EXPECT_EQ(rec.host.thread_budget, 4);
  const std::pair<const char*, double> expect[] = {
      {"items_per_second", 206000000},
      {"offered_fpc", 0.050000000000000003},
      {"avg_latency", 3.3980582524271843},
      {"recv_flits_per_cycle", 0.20599999999999999},
      {"recv_gbps", 13.183999999999999},
      {"bypass_rate", 0.99586776859504134},
      {"completed_packets", 103},
      {"dropped_packets", 0},
      {"max_ejection_load", 0.062},
      {"max_bisection_load", 0.035999999999999997},
      {"transactions", 0},
      {"avg_transaction_latency", 0},
      {"max_transaction_latency", 0},
      {"transactions_per_cycle", 0},
      {"closed_loop_window", 0},
      {"avg_probe_latency", 0},
      {"avg_response_latency", 0},
      {"p50_latency", 3},
      {"p95_latency", 4},
      {"p99_latency", 4},
      {"min_latency", 3},
      {"max_latency", 5},
      {"stall_buffer_empty", 0},
      {"stall_no_free_vc", 0},
      {"stall_no_credit", 0},
      {"stall_lost_sa", 0},
      {"stall_lost_va", 0},
      {"xbar_traversals", 242},
      {"link_traversals", 140},
      {"buffer_writes", 1},
      {"buffer_reads", 1},
      {"vc_active_cycles", 243},
      {"bypasses", 241},
      {"buffered_hops", 1},
  };
  ASSERT_EQ(rec.report.size(), std::size(expect));
  for (size_t i = 0; i < rec.report.size(); ++i) {
    EXPECT_EQ(rec.report[i].first, expect[i].first);
    EXPECT_EQ(std::bit_cast<uint64_t>(rec.report[i].second),
              std::bit_cast<uint64_t>(expect[i].second))
        << expect[i].first;
  }
  EXPECT_EQ(ResultStore::serialize_record(rec), kPinnedRecord);
}

TEST(CampaignGather, ReportCoversEveryPointOrNamesTheMissing) {
  const Manifest m = smoke_manifest();
  ResultStore store(fresh_root("gather", m));
  const std::string report = store.root() + "/report.json";

  // Partial store: gather still writes, naming the missing points.
  RunOptions cut;
  cut.threads = 2;
  cut.max_points = 2;
  ASSERT_TRUE(run_campaign(m, store, cut).ok());
  const GatherResult partial = gather_campaign(m, store, report);
  EXPECT_TRUE(partial.wrote);
  EXPECT_EQ(partial.complete, 2);
  EXPECT_EQ(partial.missing.size(), m.points.size() - 2);

  // Complete store: every row present, none missing.
  ASSERT_TRUE(run_campaign(m, store, {.threads = 2}).complete());
  const GatherResult full = gather_campaign(m, store, report);
  EXPECT_TRUE(full.wrote);
  EXPECT_EQ(full.complete, static_cast<int>(m.points.size()));
  EXPECT_TRUE(full.missing.empty());
  const std::string bytes = json::read_file(report);
  EXPECT_NE(bytes.find("\"benchmarks\""), std::string::npos);
  for (const auto& p : m.points)
    EXPECT_NE(bytes.find(m.name + "/" + p.id), std::string::npos) << p.id;
}

TEST(CampaignGather, InvalidManifestFailsWithoutWritingOrRemoving) {
  const Manifest m = smoke_manifest();
  ResultStore store(fresh_root("invalid", m));
  ASSERT_TRUE(run_campaign(m, store, {.threads = 1, .max_points = 1}).ok());
  std::string err;
  const auto points = resolve_manifest(m, &err);
  ASSERT_FALSE(points.empty()) << err;
  const std::string record = store.record_path(points[0].point->id,
                                               points[0].hash);
  ASSERT_FALSE(json::read_file(record).empty());

  Manifest dup = m;
  dup.points.push_back(dup.points[0]);  // duplicate point id
  const std::string report = store.root() + "/invalid_report.json";
  std::remove(report.c_str());
  const GatherResult g = gather_campaign(dup, store, report);
  EXPECT_FALSE(g.wrote);
  EXPECT_EQ(g.complete, 0);
  EXPECT_NE(g.error.find("duplicate id"), std::string::npos) << g.error;
  EXPECT_FALSE(std::ifstream(report).good()) << "report written";

  err.clear();
  EXPECT_EQ(store.remove_campaign(dup, &err), -1);
  EXPECT_NE(err.find("duplicate id"), std::string::npos) << err;
  EXPECT_FALSE(json::read_file(record).empty()) << "record removed";
}
