// Transcript runner for the golden corpora (tests/corpus/<dir>/*.golden).
//
// A golden file is both the script and its expected output. Lines starting
// with "> " are commands; blank lines and lines starting with "#" are
// comments; every other line is output. The runner executes the commands
// of a file in order against one fresh Database and renders a transcript
// in the same format: each command line (and comment) verbatim, followed
// by the output the command produced. A file passes when the rendered
// transcript equals the file byte for byte.
//
// Commands:
//   > <statement>          Database::Execute (Cypher, trigger or index DDL)
//   > @tx <s1> ;; <s2> ... Database::ExecuteTx over the ';;'-separated list
//   > @at <statement>      QueryAt over a snapshot opened just before
//   > @stats               engine-wide and per-trigger statistics
//   > @graph               canonical dump of the whole graph, in id order
//
// Directive (first line of a file only, no output): the EngineOptions the
// Database is built with, read by ScriptOptions before the first command.
//   > @options key=value ...
// Keys: trigger_ordering=creation_time|name,
//       label_event_semantics=monitored_label|target_set_change,
//       max_ivm_state_bytes=<int>.
//
// Output of a statement: "ok" for a result without columns and rows, the
// ASCII table (QueryResult::ToTable) otherwise, or "error <Code>: <text>".
// Every database gets a no-op procedure `test.mark()` registered before
// the first command.

#ifndef PGTRIGGERS_TESTS_GOLDEN_TRANSCRIPT_H_
#define PGTRIGGERS_TESTS_GOLDEN_TRANSCRIPT_H_

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/macros.h"
#include "src/trigger/database.h"

namespace pgt::golden {

/// The command and comment lines of a golden file, in order (output lines
/// dropped).
inline std::vector<std::string> ScriptLines(const std::string& file_text) {
  std::vector<std::string> out;
  std::istringstream in(file_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.rfind("> ", 0) == 0) {
      out.push_back(line);
    }
  }
  return out;
}

inline constexpr const char kOptionsPrefix[] = "> @options";

/// EngineOptions named by the script's leading `> @options` line (the
/// defaults when there is none); an unknown key or value is an error.
inline Result<EngineOptions> ScriptOptions(
    const std::vector<std::string>& script) {
  EngineOptions opts;
  if (script.empty() || script[0].rfind(kOptionsPrefix, 0) != 0) return opts;
  std::istringstream in(script[0].substr(sizeof(kOptionsPrefix) - 1));
  std::string pair;
  while (in >> pair) {
    const size_t eq = pair.find('=');
    const std::string key = pair.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : pair.substr(eq + 1);
    if (key == "trigger_ordering" && value == "creation_time") {
      opts.trigger_ordering = TriggerOrdering::kCreationTime;
    } else if (key == "trigger_ordering" && value == "name") {
      opts.trigger_ordering = TriggerOrdering::kName;
    } else if (key == "label_event_semantics" && value == "monitored_label") {
      opts.label_event_semantics = LabelEventSemantics::kMonitoredLabel;
    } else if (key == "label_event_semantics" &&
               value == "target_set_change") {
      opts.label_event_semantics = LabelEventSemantics::kTargetSetChange;
    } else if (key == "max_ivm_state_bytes" && !value.empty() &&
               std::all_of(value.begin(), value.end(), ::isdigit)) {
      opts.max_ivm_state_bytes = std::stoll(value);
    } else {
      return Status::InvalidArgument("unknown @options entry '" + pair + "'");
    }
  }
  return opts;
}

inline void RenderStatus(const Status& st, std::ostringstream& os) {
  os << "error " << StatusCodeName(st.code()) << ": " << st.message() << "\n";
}

inline void RenderResult(const Result<cypher::QueryResult>& r,
                         std::ostringstream& os) {
  if (!r.ok()) {
    RenderStatus(r.status(), os);
  } else if (r->columns.empty() && r->rows.empty()) {
    os << "ok\n";
  } else {
    os << r->ToTable();
  }
}

inline void RenderStats(Database& db, std::ostringstream& os) {
  const EngineStats& s = db.stats();
  os << "stat statements=" << s.statements
     << " cascade_depth_max=" << s.cascade_depth_max
     << " oncommit_rounds_max=" << s.oncommit_rounds_max
     << " detached_runs=" << s.detached_runs << "\n";
  for (const auto& [name, ts] : s.per_trigger) {
    os << "stat trigger " << name << " considered=" << ts.considered
       << " fired=" << ts.fired << " action_rows=" << ts.action_rows
       << " errors=" << ts.errors << "\n";
  }
}

/// Every alive node (sorted labels, properties) and relationship, in id
/// order.
inline void RenderGraph(Database& db, std::ostringstream& os) {
  const GraphStore& store = db.store();
  for (NodeId id : store.AllNodes()) {
    const NodeRecord* n = store.GetNode(id);
    os << "graph n" << id.value << "[";
    for (LabelId l : n->labels) os << store.LabelName(l) << ",";
    os << "]{";
    for (const auto& [k, v] : n->props) {
      os << store.PropKeyName(k) << "=" << v.ToString() << ",";
    }
    os << "}\n";
  }
  for (RelId id : store.AllRels()) {
    const RelRecord* r = store.GetRel(id);
    os << "graph r" << id.value << ":" << store.RelTypeName(r->type) << " "
       << r->src.value << "->" << r->dst.value << "{";
    for (const auto& [k, v] : r->props) {
      os << store.PropKeyName(k) << "=" << v.ToString() << ",";
    }
    os << "}\n";
  }
}

inline std::vector<std::string> SplitTx(const std::string& text) {
  std::vector<std::string> out;
  size_t start = 0;
  for (;;) {
    const size_t pos = text.find(" ;; ", start);
    out.push_back(text.substr(start, pos - start));
    if (pos == std::string::npos) return out;
    start = pos + 4;
  }
}

/// Runs one command (a script line without "> ") and renders its output.
inline void RunCommand(Database& db, const std::string& cmd,
                       std::ostringstream& os) {
  if (cmd == "@stats") {
    RenderStats(db, os);
  } else if (cmd == "@graph") {
    RenderGraph(db, os);
  } else if (cmd.rfind("@tx ", 0) == 0) {
    auto r = db.ExecuteTx(SplitTx(cmd.substr(4)));
    if (!r.ok()) {
      RenderStatus(r.status(), os);
      return;
    }
    for (const cypher::QueryResult& qr : *r) {
      RenderResult(Result<cypher::QueryResult>(qr), os);
    }
  } else if (cmd.rfind("@at ", 0) == 0) {
    auto snap = db.OpenSnapshot();
    if (!snap.ok()) {
      RenderStatus(snap.status(), os);
      return;
    }
    RenderResult(db.QueryAt(**snap, cmd.substr(4)), os);
  } else {
    RenderResult(db.Execute(cmd), os);
  }
}

/// Called after every command with the command text (without "> ").
using CommandHook = std::function<void(Database& db, const std::string& cmd)>;

/// Runs `script` (ScriptLines output) against `db` and renders the
/// transcript. `after`, when set, runs after every command.
inline std::string RunTranscript(Database& db,
                                 const std::vector<std::string>& script,
                                 const CommandHook& after = nullptr) {
  db.procedures().Register(
      "test.mark", {},
      [](cypher::EvalContext&, const std::vector<Value>&,
         const cypher::Row&) -> Result<std::vector<cypher::Row>> {
        return std::vector<cypher::Row>{};
      });
  std::ostringstream os;
  for (size_t i = 0; i < script.size(); ++i) {
    const std::string& line = script[i];
    os << line << "\n";
    if (line.rfind("> ", 0) != 0) continue;
    const std::string cmd = line.substr(2);
    if (cmd.rfind("@options", 0) == 0) {
      // Read by ScriptOptions before the Database was built.
      if (i != 0) {
        RenderStatus(Status::InvalidArgument(
                         "@options must be the first line of a file"),
                     os);
      }
      continue;
    }
    RunCommand(db, cmd, os);
    if (after) after(db, cmd);
  }
  return os.str();
}

// --- Corpus files ----------------------------------------------------------

/// tests/corpus/<dir>.
inline std::filesystem::path CorpusDir(const std::string& dir) {
  return std::filesystem::path(__FILE__).parent_path() / "corpus" / dir;
}

inline std::string ReadFile(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Stems of every .golden file in tests/corpus/<dir>, sorted.
inline std::vector<std::string> CorpusNames(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(CorpusDir(dir), ec)) {
    if (entry.path().extension() == ".golden") {
      names.push_back(entry.path().stem().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// One run of a corpus file: its text and the transcript rendered.
struct FileRun {
  std::string expected;
  std::string actual;
};

/// Runs tests/corpus/<dir>/<name>.golden against a fresh Database built
/// from the file's @options line; `*db` keeps the database for checks
/// after the run.
inline Result<FileRun> RunCorpusFile(const std::string& dir,
                                     const std::string& name,
                                     std::unique_ptr<Database>* db,
                                     const CommandHook& after = nullptr) {
  FileRun run;
  run.expected = ReadFile(CorpusDir(dir) / (name + ".golden"));
  if (run.expected.empty()) {
    return Status::NotFound("missing corpus file " + dir + "/" + name);
  }
  const std::vector<std::string> script = ScriptLines(run.expected);
  PGT_ASSIGN_OR_RETURN(EngineOptions opts, ScriptOptions(script));
  *db = std::make_unique<Database>(opts);
  run.actual = RunTranscript(**db, script, after);
  return run;
}

}  // namespace pgt::golden

#endif  // PGTRIGGERS_TESTS_GOLDEN_TRANSCRIPT_H_
