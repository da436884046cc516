// Transcript runner for the golden plan corpus (tests/corpus/plan/*.golden).
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
// Output of a statement: "ok" for a result without columns and rows, the
// ASCII table (QueryResult::ToTable) otherwise, or "error <Code>: <text>".
// Every database gets a no-op procedure `test.mark()` registered before
// the first command.

#ifndef PGTRIGGERS_TESTS_GOLDEN_TRANSCRIPT_H_
#define PGTRIGGERS_TESTS_GOLDEN_TRANSCRIPT_H_

#include <sstream>
#include <string>
#include <vector>

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

/// Runs `script` (ScriptLines output) against `db` and renders the
/// transcript.
inline std::string RunTranscript(Database& db,
                                 const std::vector<std::string>& script) {
  db.procedures().Register(
      "test.mark", {},
      [](cypher::EvalContext&, const std::vector<Value>&,
         const cypher::Row&) -> Result<std::vector<cypher::Row>> {
        return std::vector<cypher::Row>{};
      });
  std::ostringstream os;
  for (const std::string& line : script) {
    os << line << "\n";
    if (line.rfind("> ", 0) != 0) continue;
    const std::string cmd = line.substr(2);
    if (cmd == "@stats") {
      RenderStats(db, os);
    } else if (cmd == "@graph") {
      RenderGraph(db, os);
    } else if (cmd.rfind("@tx ", 0) == 0) {
      auto r = db.ExecuteTx(SplitTx(cmd.substr(4)));
      if (!r.ok()) {
        RenderStatus(r.status(), os);
        continue;
      }
      for (const cypher::QueryResult& qr : *r) {
        RenderResult(Result<cypher::QueryResult>(qr), os);
      }
    } else if (cmd.rfind("@at ", 0) == 0) {
      auto snap = db.OpenSnapshot();
      if (!snap.ok()) {
        RenderStatus(snap.status(), os);
        continue;
      }
      RenderResult(db.QueryAt(**snap, cmd.substr(4)), os);
    } else {
      RenderResult(db.Execute(cmd), os);
    }
  }
  return os.str();
}

}  // namespace pgt::golden

#endif  // PGTRIGGERS_TESTS_GOLDEN_TRANSCRIPT_H_
