#include <algorithm>
#include <chrono>
#include <deque>
#include <iterator>
#include <set>
#include <utility>
#include <string>
#include <vector>

#include "perfbench/workload.h"
#include "src/covid/generator.h"
#include "src/covid/schema.h"
#include "src/covid/triggers.h"

namespace perfbench {

using pgt::Database;
using pgt::Params;
using pgt::Rng;
using pgt::Status;
using pgt::Value;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Status ExecAll(Database& db, const std::vector<std::string>& statements) {
  for (const std::string& s : statements) {
    auto r = db.Execute(s);
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

std::string Str(const Value& v) { return std::string(v.string_value()); }

/// Draws kinds in a fixed proportion: every run of sum(weights) draws
/// holds kind k exactly weights[k] times, in seeded random order. Seeds
/// then change the order and the data of a run, not its mix, so the
/// run's cost does not swing with how many heavy writes a seed happened
/// to draw.
class Deck {
 public:
  explicit Deck(std::vector<int> weights) : weights_(std::move(weights)) {}

  int Draw(Rng& rng) {
    if (next_ == cards_.size()) {
      cards_.clear();
      for (size_t k = 0; k < weights_.size(); ++k) {
        cards_.insert(cards_.end(), weights_[k], static_cast<int>(k));
      }
      for (size_t i = cards_.size(); i > 1; --i) {
        std::swap(cards_[i - 1], cards_[rng.NextBelow(i)]);
      }
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<int> weights_;
  std::vector<int> cards_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// COVID-19 surveillance (the paper's Section 6): CoV2K data, the Section 6.2
// triggers, and the hospital / sequencing / WHO event streams.

struct CovidConfig {
  pgt::covid::GeneratorOptions gen;
  // Weights of the event streams (Deck). Each admit/discharge slot
  // admits a wave while the ICU census is under `icu_target` and
  // discharges one patient otherwise, so the graph keeps its size.
  int w_census = 0, w_mutation = 0, w_sequence = 0, w_who = 0;
  int icu_target = 0;
  bool schema = false;      // covid_guarded: PG-Schema commit guard
  double rate = 0;          // writes per second (see Workload::write_rate)
};

constexpr int kMaxWave = 4;

class CovidWorkload : public Workload {
 public:
  CovidWorkload(CovidConfig cfg, uint64_t seed)
      : cfg_(std::move(cfg)),
        rng_(seed * 0x9E3779B97F4A7C15ull + 7),
        kinds_({cfg_.w_census, cfg_.w_mutation, cfg_.w_sequence, cfg_.w_who}) {
    cfg_.gen.seed = seed;
    for (int i = 0; i < kMaxWave; ++i) {
      const std::string n = std::to_string(i);
      admit_text_.push_back(
          "MATCH (h:Hospital {name: $h" + n + "}) "
          "UNWIND RANGE(1, $n" + n + ") AS k "
          "CREATE (p:Patient:HospitalizedPatient:IcuPatient "
          "{ssn: 'WSSN' + toString($b" + n + " + k), "
          "name: 'WavePatient' + toString($b" + n + " + k), sex: 'F', "
          "vaccinated: 2, id: $b" + n + " + k, prognosis: 'severe', "
          "admission: DATE()}) "
          "CREATE (p)-[:TreatedAt]->(h)");
    }
  }

  // The covid workloads log without fsync or checkpoints: durability is
  // ledger_durable's subject, and here the WAL stays a small share.
  void ConfigureWal(pgt::wal::WalOptions* wal) const override {
    wal->fsync = false;
    wal->snapshot_interval = 0;
  }

  double write_rate() const override { return cfg_.rate; }

  Status Populate(Database& db, SetupTimes* t) override {
    auto t0 = std::chrono::steady_clock::now();
    pgt::covid::CovidDataset data =
        pgt::covid::GenerateCovidData(db.store(), cfg_.gen);
    t->generate_s = t->dataset_s = SecondsSince(t0);
    const pgt::GraphStore& store = db.store();
    const pgt::PropKeyId name = *store.LookupPropKey("name");
    for (pgt::NodeId id : data.hospitals) {
      hospitals_.push_back(Str(store.GetNodeProp(id, name)));
    }
    for (pgt::NodeId id : data.lineages) {
      lineages_.push_back(Str(store.GetNodeProp(id, name)));
    }
    for (pgt::NodeId id : data.mutations) {
      mutations_.push_back(Str(store.GetNodeProp(id, name)));
    }
    const pgt::PropKeyId desc = *store.LookupPropKey("description");
    for (pgt::NodeId id : data.critical_effects) {
      effects_.push_back(Str(store.GetNodeProp(id, desc)));
    }
    auto crit = db.Execute(
        "MATCH (m:Mutation)-[:Risk]-(:CriticalEffect) RETURN m.name AS n");
    if (!crit.ok()) return crit.status();
    for (const auto& row : crit->rows) critical_.push_back(Str(row[0]));
    std::sort(critical_.begin(), critical_.end());
    critical_.erase(std::unique(critical_.begin(), critical_.end()),
                    critical_.end());
    // Sequencing draws its "harmless" mutations from the rest.
    std::erase_if(mutations_, [&](const std::string& m) {
      return std::binary_search(critical_.begin(), critical_.end(), m);
    });

    t0 = std::chrono::steady_clock::now();
    Status st = ExecAll(db, {"CREATE INDEX ON :Hospital(name)",
                             "CREATE INDEX ON :Lineage(name)",
                             "CREATE INDEX ON :Mutation(name)"});
    if (!st.ok()) return st;
    t->index_s = SecondsSince(t0);

    // Admit the ICU census up to its target before any trigger exists, so
    // the run starts in the steady state the admit/discharge balance keeps.
    while (static_cast<int>(icu_.size()) < cfg_.icu_target) {
      const WriteOp op = Admit();
      auto r = db.ExecuteTx(op.statements, op.params);
      if (!r.ok()) return r.status();
    }

    t0 = std::chrono::steady_clock::now();
    st = pgt::covid::InstallPaperTriggers(db);
    if (!st.ok()) return st;
    if (cfg_.schema) db.AttachSchema(pgt::covid::BuildCovidSchema());
    t->triggers_s = SecondsSince(t0);
    return Status::OK();
  }

  WriteOp NextWrite() override {
    switch (kinds_.Draw(rng_)) {
      case 0:
        return static_cast<int>(icu_.size()) < cfg_.icu_target ? Admit()
                                                                : Discharge();
      case 1:
        return Mutation();
      case 2:
        return Sequence();
      default:
        return Who();
    }
  }

  // Point reads are three quarters of the mix, so the read p50 falls well
  // inside them and the p99 among the aggregations, not at the edge
  // between two kinds of read.
  ReadOp NextRead(Rng& rng) const override {
    ReadOp op;
    const uint64_t pick = rng.NextBelow(100);
    if (pick < 75) {
      op.statements = {
          "MATCH (l:Lineage {name: $name}) "
          "RETURN l.name AS name, l.whoDesignation AS who"};
      op.params["name"] = Value::String(lineages_[rng.NextBelow(lineages_.size())]);
      op.check = ReadOp::kOneRow;
    } else if (pick < 85) {
      op.statements = {"MATCH (a:Alert) RETURN COUNT(a) AS n"};
      op.check = ReadOp::kOneRow;
    } else if (pick < 95) {
      op.statements = {
          "MATCH (p:IcuPatient)-[:TreatedAt]->(h:Hospital) "
          "RETURN h.name AS hospital, COUNT(p) AS icu",
          "MATCH (p:IcuPatient) RETURN COUNT(p) AS n"};
      op.check = ReadOp::kIcuSumsToTotal;
    } else {
      op.statements = {
          "MATCH (l:Lineage {name: $name})<-[:BelongsTo]-(s:Sequence) "
          "RETURN COUNT(s) AS n"};
      op.params["name"] = Value::String(lineages_[rng.NextBelow(lineages_.size())]);
      op.check = ReadOp::kAny;
    }
    return op;
  }

  std::string CheckFinal(Database& db) override {
    std::string err;
    const int64_t icu = CountOf(db, "MATCH (p:IcuPatient) RETURN COUNT(p)", &err);
    if (!err.empty()) return err;
    if (icu != static_cast<int64_t>(icu_.size())) {
      return "ICU census " + std::to_string(icu) + " != admitted - discharged " +
             std::to_string(icu_.size());
    }
    const int64_t orphans = CountOf(
        db,
        "MATCH (p:IcuPatient) OPTIONAL MATCH (p)-[t:TreatedAt]-(:Hospital) "
        "WITH p, COUNT(t) AS c WHERE c <> 1 RETURN COUNT(p)",
        &err);
    if (!err.empty()) return err;
    if (orphans != 0) {
      return std::to_string(orphans) +
             " ICU patients are not treated at exactly one hospital";
    }
    const int64_t mut_alerts = CountOf(
        db, "MATCH (a:Alert {desc: 'New critical mutation'}) RETURN COUNT(a)",
        &err);
    if (!err.empty()) return err;
    if (mut_alerts != critical_registrations_) {
      return "NewCriticalMutation fired " + std::to_string(mut_alerts) +
             " times for " + std::to_string(critical_registrations_) +
             " critical registrations";
    }
    const int64_t lin_alerts = CountOf(
        db, "MATCH (a:Alert {desc: 'New critical lineage'}) RETURN COUNT(a)",
        &err);
    if (!err.empty()) return err;
    if (lin_alerts != critical_sequences_) {
      return "NewCriticalLineage fired " + std::to_string(lin_alerts) +
             " times for " + std::to_string(critical_sequences_) +
             " sequences carrying a critical mutation";
    }
    return "";
  }

 private:
  WriteOp Admit() {
    WriteOp op;
    op.kind = "admit";
    op.tx = true;
    const int wave = static_cast<int>(rng_.NextInRange(1, kMaxWave));
    for (int i = 0; i < wave; ++i) {
      const std::string n = std::to_string(i);
      // Sacco, where the paper's capacity triggers look, gets a third.
      const std::string& h = rng_.NextBool(0.33)
                                 ? hospitals_[0]
                                 : hospitals_[rng_.NextBelow(hospitals_.size())];
      const int count = static_cast<int>(rng_.NextInRange(1, 3));
      op.statements.push_back(admit_text_[i]);
      op.params["h" + n] = Value::String(h);
      op.params["n" + n] = Value::Int(count);
      op.params["b" + n] = Value::Int(next_id_);
      for (int k = 1; k <= count; ++k) icu_.push_back(next_id_ + k);
      next_id_ += count;
    }
    return op;
  }

  WriteOp Discharge() {
    WriteOp op;
    op.kind = "discharge";
    const size_t i = rng_.NextBelow(icu_.size());
    op.statements = {"MATCH (p:IcuPatient {id: $id}) DETACH DELETE p"};
    op.params["id"] = Value::Int(icu_[i]);
    icu_[i] = icu_.back();
    icu_.pop_back();
    return op;
  }

  WriteOp Mutation() {
    static const char* kProteins[] = {"Spike", "ORF1a", "ORF1b", "N", "E", "M"};
    WriteOp op;
    op.kind = "mutation";
    const std::string protein = kProteins[rng_.NextBelow(6)];
    const std::string name = protein + ":B" + std::to_string(++mutation_seq_) + "X";
    op.params["name"] = Value::String(name);
    op.params["protein"] = Value::String(protein);
    if (critical_mutation_.Draw(rng_) == 1) {
      op.statements = {
          "MATCH (c:CriticalEffect {description: $effect}) "
          "CREATE (m:Mutation {name: $name, protein: $protein}) "
          "CREATE (m)-[:Risk]->(c)"};
      op.params["effect"] = Value::String(effects_[rng_.NextBelow(effects_.size())]);
      critical_.push_back(name);
      ++critical_registrations_;
    } else {
      op.statements = {"CREATE (:Mutation {name: $name, protein: $protein})"};
      mutations_.push_back(name);
    }
    return op;
  }

  WriteOp Sequence() {
    WriteOp op;
    op.kind = "sequence";
    const bool critical =
        critical_sequence_.Draw(rng_) == 1 && !critical_.empty();
    const std::string& mutation =
        critical ? critical_[rng_.NextBelow(critical_.size())]
                 : mutations_[rng_.NextBelow(mutations_.size())];
    if (critical) ++critical_sequences_;
    op.statements = {
        "MATCH (l:Lineage {name: $lineage}) "
        "MATCH (m:Mutation {name: $mutation}) "
        "MATCH (p:Patient) WITH l, m, p LIMIT 1 "
        "CREATE (s:Sequence {accession: $accession, collection: DATE()}) "
        "CREATE (p)-[:HasSample]->(s) "
        "CREATE (m)-[:FoundIn]->(s) "
        "CREATE (s)-[:BelongsTo]->(l)"};
    op.params["lineage"] = Value::String(lineages_[rng_.NextBelow(lineages_.size())]);
    op.params["mutation"] = Value::String(mutation);
    op.params["accession"] =
        Value::String("EPI_PB_" + std::to_string(++sequence_seq_));
    return op;
  }

  WriteOp Who() {
    static const char* kWho[] = {"Alpha", "Beta", "Gamma",
                                 "Delta", "Omicron", "Provisional"};
    WriteOp op;
    op.kind = "who";
    op.statements = {
        "MATCH (l:Lineage {name: $lineage}) SET l.whoDesignation = $who"};
    op.params["lineage"] = Value::String(lineages_[rng_.NextBelow(lineages_.size())]);
    op.params["who"] = Value::String(kWho[rng_.NextBelow(6)]);
    return op;
  }

  CovidConfig cfg_;
  Rng rng_;
  Deck kinds_;
  // Three in ten mutations and sequences are critical.
  Deck critical_mutation_{{7, 3}};
  Deck critical_sequence_{{7, 3}};
  std::vector<std::string> admit_text_;
  std::vector<std::string> hospitals_, lineages_, mutations_, critical_,
      effects_;
  // Generator-side view of the graph, so every write names live data.
  std::vector<int64_t> icu_;       // ids of admitted, not yet discharged
  int64_t next_id_ = 1'000'000;
  int64_t mutation_seq_ = 0;
  int64_t sequence_seq_ = 0;
  int64_t critical_registrations_ = 0;
  int64_t critical_sequences_ = 0;
};

CovidConfig ScaledCovid() {
  CovidConfig c;
  c.gen.regions = 6;
  c.gen.hospitals_per_region = 4;
  c.gen.lineages = 400;
  c.gen.mutations = 2000;
  c.gen.patients = 19000;
  c.gen.sequences = 30000;
  c.w_census = 55;
  c.w_mutation = 15;
  c.w_sequence = 12;
  c.w_who = 18;
  c.icu_target = 240;
  c.rate = 400;
  return c;
}

// ---------------------------------------------------------------------------
// Durable anti-fraud ledger (examples/fraud_detection.cc at scale).

constexpr int kAccounts = 20000;
constexpr int kWatched = 200;
constexpr size_t kTransferWindow = 6000;
constexpr int kBatchSize = 12;

const char* const kLedgerTriggers[] = {
    R"(CREATE TRIGGER LargeTransfer
AFTER CREATE ON 'Transfer' FOR EACH RELATIONSHIP
WHEN NEW.amount > 50000
BEGIN
  CREATE (:FraudAlert {kind: 'large-transfer', amount: NEW.amount, at: DATETIME()})
END)",
    // The example matches `(:Account)-[t:NEWRELS]-(:Account)`, which the
    // engine never binds (the rule cannot fire); UNWIND reads the same
    // transition set.
    R"(CREATE TRIGGER Structuring
ONCOMMIT CREATE ON 'Transfer' FOR ALL RELATIONSHIPS
WHEN
  UNWIND NEWRELS AS t
  WITH t WHERE t.amount < 10000
  WITH COUNT(t) AS small
  WHERE small >= 10
BEGIN
  CREATE (:FraudAlert {kind: 'structuring', count: small, at: DATETIME()})
END)",
    R"(CREATE TRIGGER PropagateRisk
AFTER SET ON 'Account'.'risk' FOR EACH NODE
WHEN NEW.risk >= 2 AND (OLD.risk IS NULL OR OLD.risk < 2)
BEGIN
  MATCH (NEW)-[:Transfer]->(next:Account)
  WHERE next.risk IS NULL OR next.risk < NEW.risk - 1
  SET next.risk = NEW.risk - 1
END)",
    R"(CREATE TRIGGER AuditAlert
DETACHED CREATE ON 'FraudAlert' FOR EACH NODE
BEGIN
  CREATE (:AuditEntry {kind: NEW.kind, logged: DATETIME()})
END)",
    // The keyed watchlist condition IVM maintains (Watched is unindexed,
    // so without IVM every transfer scans the watchlist).
    R"(CREATE TRIGGER WatchlistHit
AFTER CREATE ON 'Transfer' FOR EACH RELATIONSHIP
WHEN MATCH (w:Watched {iban: NEW.to})
BEGIN
  CREATE (:FraudAlert {kind: 'watchlist', iban: w.iban, at: DATETIME()})
END)",
};

std::string Iban(int64_t i) { return "IT" + std::to_string(100000 + i); }

struct Transfer {
  std::string from;
  int64_t seq;
};

class LedgerWorkload : public Workload {
 public:
  explicit LedgerWorkload(uint64_t seed)
      : rng_(seed * 0xD1B54A32D192ED03ull + 11), setup_rng_(seed) {}

  double write_rate() const override { return 12000; }

  // One fsync per 128 commits keeps fsync a minority of a write, so the
  // host's disk noise does not carry the write p99 and throughput. About
  // three checkpoints complete in every process's writes.
  void ConfigureWal(pgt::wal::WalOptions* wal) const override {
    wal->fsync = true;
    wal->group_size = 128;
    wal->snapshot_interval = 10000;
  }

  Status Populate(Database& db, SetupTimes* t) override {
    auto t0 = std::chrono::steady_clock::now();
    // Before any trigger exists: accounts, the watchlist, and a full
    // window of past transfers.
    auto r = db.Execute("UNWIND RANGE(0, $n - 1) AS i "
                        "CREATE (:Account {iban: 'IT' + toString(100000 + i), "
                        "risk: 0})",
                        {{"n", Value::Int(kAccounts)}});
    if (!r.ok()) return r.status();
    t->dataset_s = SecondsSince(t0);
    auto t1 = std::chrono::steady_clock::now();
    r = db.Execute("CREATE INDEX ON :Account(iban)");
    if (!r.ok()) return r.status();
    t->index_s = SecondsSince(t1);
    t0 = std::chrono::steady_clock::now();
    while (watched_.size() < static_cast<size_t>(kWatched)) {
      watched_.insert(Iban(setup_rng_.NextBelow(kAccounts)));
    }
    Value::List watched;
    for (const std::string& iban : watched_) {
      watched.push_back(Value::String(iban));
    }
    r = db.Execute("UNWIND $w AS iban CREATE (:Watched {iban: iban})",
                   {{"w", Value::MakeList(std::move(watched))}});
    if (!r.ok()) return r.status();
    while (live_.size() < kTransferWindow) {
      Value::List rows;
      for (int i = 0; i < 1000 && live_.size() < kTransferWindow; ++i) {
        const auto [from, to] = Pair(setup_rng_);
        Value::Map row;
        row["f"] = Value::String(from);
        row["t"] = Value::String(to);
        row["a"] = Value::Int(setup_rng_.NextInRange(100, 9999));
        row["s"] = Value::Int(++seq_);
        rows.push_back(Value::MakeMap(std::move(row)));
        live_.push_back(Transfer{from, seq_});
      }
      r = db.Execute(
          "UNWIND $rows AS r "
          "MATCH (a:Account {iban: r.f}), (b:Account {iban: r.t}) "
          "CREATE (a)-[:Transfer {amount: r.a, to: r.t, seq: r.s}]->(b)",
          {{"rows", Value::MakeList(std::move(rows))}});
      if (!r.ok()) return r.status();
    }
    t->dataset_s += SecondsSince(t0);
    t0 = std::chrono::steady_clock::now();
    for (const char* ddl : kLedgerTriggers) {
      r = db.Execute(ddl);
      if (!r.ok()) return r.status();
    }
    t->triggers_s = SecondsSince(t0);
    return Status::OK();
  }

  WriteOp NextWrite() override {
    if (live_.size() > kTransferWindow + 24) return Retention();
    switch (kinds_.Draw(rng_)) {
      case 0:
        return Single();
      case 1:
        return Batch();
      case 2:
        return Risk(3, "flag");
      case 3:
        return Risk(0, "clear");
      default:
        return Watch();
    }
  }

  ReadOp NextRead(Rng& rng) const override {
    ReadOp op;
    const uint64_t pick = rng.NextBelow(100);
    // As in the covid mix: three quarters point reads.
    if (pick < 75) {
      op.statements = {
          "MATCH (a:Account {iban: $iban}) RETURN a.iban AS iban, a.risk AS risk"};
      op.params["iban"] = Value::String(Iban(rng.NextBelow(kAccounts)));
      op.check = ReadOp::kOneRow;
    } else if (pick < 90) {
      op.statements = {
          "MATCH (a:Account {iban: $iban})-[t:Transfer]->(:Account) "
          "RETURN COUNT(t) AS n, SUM(t.amount) AS total"};
      op.params["iban"] = Value::String(Iban(rng.NextBelow(kAccounts)));
      op.check = ReadOp::kOneRow;
    } else {
      op.statements = {"MATCH (f:FraudAlert) RETURN COUNT(f) AS n",
                       "MATCH (e:AuditEntry) RETURN COUNT(e) AS n"};
      op.check = ReadOp::kAlertsAudited;
    }
    return op;
  }

  std::string CheckFinal(Database& db) override {
    std::string err;
    struct Expect {
      const char* what;
      std::string query;
      int64_t want;
    };
    const Expect expects[] = {
        {"live transfers", "MATCH ()-[t:Transfer]->() RETURN COUNT(t)",
         static_cast<int64_t>(live_.size())},
        {"large-transfer alerts",
         "MATCH (f:FraudAlert {kind: 'large-transfer'}) RETURN COUNT(f)", large_},
        {"structuring alerts",
         "MATCH (f:FraudAlert {kind: 'structuring'}) RETURN COUNT(f)",
         structuring_},
        {"watchlist alerts",
         "MATCH (f:FraudAlert {kind: 'watchlist'}) RETURN COUNT(f)", watch_hits_},
        {"audit entries", "MATCH (e:AuditEntry) RETURN COUNT(e)",
         large_ + structuring_ + watch_hits_},
    };
    for (const Expect& e : expects) {
      const int64_t got = CountOf(db, e.query, &err);
      if (!err.empty()) return err;
      if (got != e.want) {
        return std::string(e.what) + ": " + std::to_string(got) +
               ", expected " + std::to_string(e.want);
      }
    }
    // The watchlist WHEN has the shape IVM maintains; it must be served,
    // and the watchlist churn must have maintained it.
    uint64_t served = 0;
    for (const auto* state : db.ivm().States()) served += state->served();
    if (served == 0) return "IVM served no WHEN evaluation";
    if (db.ivm().counters().maintain_ops == 0) {
      return "IVM maintained no state";
    }
    return "";
  }

 private:
  std::pair<std::string, std::string> Pair(Rng& rng) {
    const int64_t a = rng.NextBelow(kAccounts);
    int64_t b = rng.NextBelow(kAccounts - 1);
    if (b >= a) ++b;
    return {Iban(a), Iban(b)};
  }

  // Amount literals are inlined, as in the example, so statement texts
  // rarely repeat and most writes miss the plan cache.
  int64_t Amount(bool small_only) {
    const uint64_t p = rng_.NextBelow(100);
    if (small_only || p < 90) return rng_.NextInRange(100, 9999);
    if (p < 97) return rng_.NextInRange(10000, 50000);
    return rng_.NextInRange(50001, 200000);
  }

  std::string TransferText(int64_t amount, const std::string& sfx) {
    return "MATCH (a:Account {iban: $f" + sfx + "}), (b:Account {iban: $t" +
           sfx + "}) CREATE (a)-[:Transfer {amount: " + std::to_string(amount) +
           ", to: $t" + sfx + ", seq: $s" + sfx + ", at: DATETIME()}]->(b)";
  }

  void Count(const std::string& to, int64_t amount) {
    if (amount > 50000) ++large_;
    if (watched_.count(to) != 0) ++watch_hits_;
  }

  WriteOp Single() {
    WriteOp op;
    op.kind = "transfer";
    const auto [from, to] = Pair(rng_);
    const int64_t amount = Amount(false);
    op.statements = {TransferText(amount, "")};
    op.params["f"] = Value::String(from);
    op.params["t"] = Value::String(to);
    op.params["s"] = Value::Int(++seq_);
    live_.push_back(Transfer{from, seq_});
    Count(to, amount);
    return op;
  }

  // A settlement batch: kBatchSize transfers out of one account in one
  // transaction; Structuring sees them together at ONCOMMIT. The write
  // p99 falls among batches, so they all have one size.
  WriteOp Batch() {
    WriteOp op;
    op.kind = "batch";
    op.tx = true;
    const int n = kBatchSize;
    const int64_t src = rng_.NextBelow(kAccounts);
    const std::string from = Iban(src);
    int small = 0;
    for (int i = 0; i < n; ++i) {
      const std::string sfx = std::to_string(i);
      const std::string to =
          Iban((src + 1 + rng_.NextBelow(kAccounts - 1)) % kAccounts);
      const int64_t amount = Amount(rng_.NextBool(0.8));
      if (amount < 10000) ++small;
      op.statements.push_back(TransferText(amount, sfx));
      op.params["f" + sfx] = Value::String(from);
      op.params["t" + sfx] = Value::String(to);
      op.params["s" + sfx] = Value::Int(++seq_);
      live_.push_back(Transfer{from, seq_});
      Count(to, amount);
    }
    if (small >= 10) ++structuring_;
    return op;
  }

  WriteOp Risk(int level, const char* kind) {
    WriteOp op;
    op.kind = kind;
    op.statements = {"MATCH (a:Account {iban: $iban}) SET a.risk = $risk"};
    op.params["iban"] = Value::String(Iban(rng_.NextBelow(kAccounts)));
    op.params["risk"] = Value::Int(level);
    return op;
  }

  // Watchlist churn: alternately watch an unwatched account and unwatch a
  // watched one, so the list stays at kWatched and the IVM state of
  // WatchlistHit's WHEN is maintained as well as served.
  WriteOp Watch() {
    WriteOp op;
    if (watched_.size() <= static_cast<size_t>(kWatched)) {
      op.kind = "watch";
      std::string iban;
      do {
        iban = Iban(rng_.NextBelow(kAccounts));
      } while (watched_.count(iban) != 0);
      op.statements = {"CREATE (:Watched {iban: $iban})"};
      op.params["iban"] = Value::String(iban);
      watched_.insert(iban);
    } else {
      op.kind = "unwatch";
      auto it = watched_.begin();
      std::advance(it, rng_.NextBelow(watched_.size()));
      op.statements = {"MATCH (w:Watched {iban: $iban}) DELETE w"};
      op.params["iban"] = Value::String(*it);
      watched_.erase(it);
    }
    return op;
  }

  // Retention: drop the oldest transfers so the live window stays steady.
  WriteOp Retention() {
    WriteOp op;
    op.kind = "retention";
    Value::List old;
    while (live_.size() > kTransferWindow) {
      Value::Map row;
      row["f"] = Value::String(live_.front().from);
      row["s"] = Value::Int(live_.front().seq);
      old.push_back(Value::MakeMap(std::move(row)));
      live_.pop_front();
    }
    op.statements = {
        "UNWIND $old AS o "
        "MATCH (a:Account {iban: o.f})-[t:Transfer {seq: o.s}]->() DELETE t"};
    op.params["old"] = Value::MakeList(std::move(old));
    return op;
  }

  Rng rng_;
  Rng setup_rng_;
  // Transfers, batches, risk flags, risk clears, watchlist changes.
  // Batches are the slowest writes; at 3% the p99 falls among batches
  // that did not wait for an fsync. Fsync-bound writes (one commit in 128)
  // are fewer than the top 1%, so when the disk slows they can only move
  // the p99 within the batches.
  Deck kinds_{{77, 3, 9, 9, 2}};
  std::set<std::string> watched_;
  std::deque<Transfer> live_;  // oldest first
  int64_t seq_ = 0;
  int64_t large_ = 0, structuring_ = 0, watch_hits_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "covid_stream") {
    return std::make_unique<CovidWorkload>(ScaledCovid(), seed);
  }
  if (name == "covid_guarded") {
    CovidConfig c;
    c.gen.regions = 3;
    c.gen.hospitals_per_region = 2;
    c.gen.lineages = 40;
    c.gen.mutations = 150;
    c.gen.patients = 1200;
    c.gen.sequences = 1400;
    c.w_census = 60;
    c.w_mutation = 20;
    c.w_sequence = 0;
    c.w_who = 20;
    c.icu_target = 60;
    c.schema = true;
    c.rate = 150;
    return std::make_unique<CovidWorkload>(c, seed);
  }
  if (name == "ledger_durable") return std::make_unique<LedgerWorkload>(seed);
  return nullptr;
}

int64_t CountOf(Database& db, const std::string& text, std::string* error,
                const Params& params) {
  auto r = db.Execute(text, params);
  if (!r.ok()) {
    *error = text + ": " + r.status().ToString();
    return -1;
  }
  if (r->rows.size() != 1 || r->rows[0].size() != 1 || !r->rows[0][0].is_int()) {
    *error = text + ": expected one integer cell";
    return -1;
  }
  return r->rows[0][0].int_value();
}

}  // namespace perfbench
