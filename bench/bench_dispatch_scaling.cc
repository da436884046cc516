// Dispatch scaling study: one MatchAll walk probing the event-keyed
// DispatchIndex vs. per-trigger MatchActivations over the catalog's ByTime
// order, as the number of installed triggers grows.
//
//   $ ./build/bench_dispatch_scaling [output.json] [--smoke]
//
// For each trigger count T, one database runs a mixed-event workload
// (node/rel creates, property sets, deletes — hitting a handful of hot
// labels out of T monitored ones). Each statement's delta is captured
// before commit and matched at all four action times both ways; the two
// must yield byte-identical activations in identical order. The report
// records matching-only micros per statement (statement execution and
// trigger actions are excluded) and the speedup.
//
// Writes a JSON baseline (default BENCH_dispatch.json). The acceptance
// goal is a >= 10x matching speedup at 5000 installed triggers.
// --smoke runs one small point (for CI) and only checks identity.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cypher/parser.h"
#include "src/cypher/plan/plan_executor.h"

namespace pgt::bench {
namespace {

struct Point {
  int triggers = 0;
  double per_trigger_micros = 0;  // per statement, MatchActivations x T
  double match_all_micros = 0;    // per statement, one MatchAll walk
  size_t activations = 0;         // per round, all four action times
  bool identical = true;
  double Speedup() const {
    return match_all_micros > 0 ? per_trigger_micros / match_all_micros : 0;
  }
};

constexpr ActionTime kTimes[] = {ActionTime::kBefore, ActionTime::kAfter,
                                 ActionTime::kOnCommit, ActionTime::kDetached};

/// Interns every monitored symbol up front (multi-tenant steady state:
/// the schema vocabulary exists before the workload runs).
void InternSymbols(Database& db, int triggers) {
  for (int i = 0; i < triggers; ++i) {
    db.store().InternLabel("L" + std::to_string(i));
    db.store().InternRelType("R" + std::to_string(i));
  }
  db.store().InternPropKey("p");
}

/// Installs `count` triggers cycling through action times, events, and item
/// kinds, each monitoring its own label / relationship type.
void InstallTriggers(Database& db, int count) {
  for (int i = 0; i < count; ++i) {
    const std::string n = std::to_string(i);
    std::string ddl;
    switch (i % 4) {
      case 0:
        ddl = "CREATE TRIGGER T" + n + " AFTER CREATE ON 'L" + n +
              "' FOR EACH NODE BEGIN CREATE (:Fired" + n + ") END";
        break;
      case 1:
        ddl = "CREATE TRIGGER T" + n + " AFTER SET ON 'L" + n +
              "'.'p' FOR EACH NODE BEGIN CREATE (:Fired" + n + ") END";
        break;
      case 2:
        ddl = "CREATE TRIGGER T" + n + " ONCOMMIT DELETE ON 'L" + n +
              "' FOR ALL NODES BEGIN CREATE (:Fired" + n + ") END";
        break;
      default:
        ddl = "CREATE TRIGGER T" + n + " DETACHED CREATE ON 'R" + n +
              "' FOR EACH RELATIONSHIP BEGIN CREATE (:Fired" + n + ") END";
        break;
    }
    MustExec(db, ddl);
  }
}

/// Trigger identity plus the bound transition sets, for comparing the two
/// match entries.
std::string Describe(const std::vector<Activation>& acts) {
  std::string out;
  for (const Activation& act : acts) {
    out += act.trigger->name + "{";
    for (const auto& [var, v] : act.env.singles) {
      out += cypher::TransVars::Name(var) + "=" + v.ToString() + ";";
    }
    for (const auto& [var, sb] : act.env.sets) {
      out += cypher::TransVars::Name(var) + "[";
      for (uint64_t id : sb.ids) out += std::to_string(id) + ",";
      out += "];";
    }
    out += "}";
  }
  return out;
}

/// Runs `statement` in its own transaction and, before the commit, matches
/// its delta `reps` times per action time both ways, adding the elapsed
/// micros to the point.
void RunAndMatch(Database& db, const std::string& statement, int reps,
                 Point* p) {
  auto tx = std::move(db.BeginTx()).value();
  tx->PushDeltaScope();
  auto q = cypher::Parser::ParseQuery(statement);
  if (!q.ok() ||
      !cypher::Executor(db.MakeEvalContext(tx.get(), nullptr, nullptr))
           .Run(q.value(), cypher::Row{})
           .ok()) {
    std::fprintf(stderr, "FATAL: statement failed: %s\n", statement.c_str());
    std::abort();
  }
  const GraphDelta delta = tx->PopDeltaScope();
  PgTriggerEngine& engine = db.engine();

  for (ActionTime time : kTimes) {
    std::vector<Activation> per_trigger;
    for (const auto& def : db.catalog().ByTime(time)) {
      for (Activation& act : engine.MatchActivations(*def, delta)) {
        per_trigger.push_back(std::move(act));
      }
    }
    const std::vector<Activation> all = engine.MatchAll(time, delta);
    p->identical = p->identical && Describe(all) == Describe(per_trigger);
    p->activations += all.size();
  }

  // Both timed loops count what they match; the counts must agree.
  size_t per_trigger_count = 0;
  Stopwatch per_trigger_sw;
  for (int r = 0; r < reps; ++r) {
    for (ActionTime time : kTimes) {
      for (const auto& def : db.catalog().ByTime(time)) {
        per_trigger_count += engine.MatchActivations(*def, delta).size();
      }
    }
  }
  p->per_trigger_micros += per_trigger_sw.ElapsedMicros() / reps;

  size_t match_all_count = 0;
  Stopwatch match_all_sw;
  for (int r = 0; r < reps; ++r) {
    for (ActionTime time : kTimes) {
      match_all_count += engine.MatchAll(time, delta).size();
    }
  }
  p->match_all_micros += match_all_sw.ElapsedMicros() / reps;
  p->identical = p->identical && per_trigger_count == match_all_count;

  if (!db.CommitWithTriggers(std::move(tx)).ok()) {
    std::fprintf(stderr, "FATAL: commit failed: %s\n", statement.c_str());
    std::abort();
  }
}

Point RunPoint(int triggers, int rounds, int reps) {
  Point p;
  p.triggers = triggers;
  Database db;
  InternSymbols(db, triggers);
  InstallTriggers(db, triggers);
  // Seed the hot set-target label with a few nodes.
  for (int i = 0; i < 4; ++i) MustExec(db, "CREATE (:L1 {p: 0})");

  int statements = 0;
  for (int r = 0; r < rounds; ++r) {
    // Node create (activates T0), property set (T1), node create+delete
    // (delete activates T2 at commit), rel create (T3, detached), and one
    // event on an unmonitored label (pure dispatch overhead).
    const std::string statements_of_round[] = {
        "CREATE (:L0 {p: 1})",
        "MATCH (n:L1) SET n.p = " + std::to_string(r),
        "CREATE (:L2 {p: 1})",
        "MATCH (n:L2) DELETE n",
        "CREATE (a:Cold)-[:R3 {p: 1}]->(b:Cold)",
        "CREATE (:Unmonitored)",
    };
    for (const std::string& s : statements_of_round) {
      RunAndMatch(db, s, reps, &p);
      ++statements;
    }
  }
  p.per_trigger_micros /= statements;
  p.match_all_micros /= statements;
  p.activations /= static_cast<size_t>(rounds);
  return p;
}

}  // namespace
}  // namespace pgt::bench

int main(int argc, char** argv) {
  using namespace pgt;
  using namespace pgt::bench;

  bool smoke = false;
  std::string json_path = "BENCH_dispatch.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }

  Banner("BENCH-dispatch",
         "event matching: one MatchAll walk vs per-trigger MatchActivations");

  const std::vector<int> counts =
      smoke ? std::vector<int>{64} : std::vector<int>{1000, 2500, 5000, 10000};
  const int rounds = smoke ? 5 : 40;
  const int reps = smoke ? 1 : 5;

  std::vector<Point> points;
  for (int t : counts) {
    std::printf("running %d installed triggers x %d rounds...\n", t, rounds);
    points.push_back(RunPoint(t, rounds, reps));
  }

  std::printf("\n%10s %20s %20s %9s %10s\n", "triggers",
              "per-trigger (us/st)", "MatchAll (us/st)", "speedup",
              "identical");
  bool identical = true;
  double speedup_at_5k = 0;
  for (const Point& p : points) {
    std::printf("%10d %20.2f %20.2f %8.1fx %10s\n", p.triggers,
                p.per_trigger_micros, p.match_all_micros, p.Speedup(),
                p.identical ? "yes" : "NO");
    identical = identical && p.identical && p.activations > 0;
    if (p.triggers == 5000) speedup_at_5k = p.Speedup();
  }

  const bool goal = smoke || speedup_at_5k >= 10.0;
  if (!smoke) {
    std::printf("\nacceptance (>= 10x matching speedup at 5000 triggers): %s\n",
                goal ? "PASS" : "FAIL");
  }

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n  \"smoke\": %s,\n  \"rounds\": %d,\n  \"reps\": %d,\n",
                 smoke ? "true" : "false", rounds, reps);
    std::fprintf(f, "  \"points\": [\n");
    for (size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(f,
                   "    {\"triggers\": %d, "
                   "\"per_trigger_micros_per_stmt\": %.2f, "
                   "\"match_all_micros_per_stmt\": %.2f, \"speedup\": %.1f, "
                   "\"activations_per_round\": %zu, "
                   "\"identical_activations\": %s}%s\n",
                   p.triggers, p.per_trigger_micros, p.match_all_micros,
                   p.Speedup(), p.activations,
                   p.identical ? "true" : "false",
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"notes\": \"matching only: micros per statement "
                 "to derive the activations of all four action times from "
                 "the statement's delta, per-trigger MatchActivations over "
                 "ByTime vs one MatchAll walk; statement execution and "
                 "trigger actions are not timed\",\n"
                 "  \"speedup_goal_10x_at_5k\": %s\n}\n",
                 goal ? "true" : "false");
    std::fclose(f);
    std::printf("baseline written to %s\n", json_path.c_str());
  }
  return identical && goal ? 0 : 1;
}
