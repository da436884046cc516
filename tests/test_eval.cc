// Expression evaluation tests, run as statements through Database::Execute:
// arithmetic, three-valued logic, string predicates, CASE, functions,
// property access (live, OLD-overlay and snapshot reads), predicates and
// aggregate detection.

#include <gtest/gtest.h>

#include <string>

#include "src/trigger/database.h"

namespace pgt {
namespace {

EngineOptions ClockAt1000() {
  EngineOptions opts;
  opts.clock_epoch_micros = 1000;
  return opts;
}

class EvalTest : public ::testing::Test {
 protected:
  EvalTest() : db_(ClockAt1000()) {}

  /// Value of `expr`, evaluated after `prefix` (clauses binding variables).
  Value Eval(const std::string& expr, const std::string& prefix = "") {
    const std::string q = prefix + " RETURN " + expr + " AS v";
    auto r = db_.Execute(q, params_);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status();
    if (!r.ok() || r->rows.size() != 1) return Value::Null();
    return r->rows[0][0];
  }

  Status EvalError(const std::string& expr, const std::string& prefix = "") {
    return db_.Execute(prefix + " RETURN " + expr + " AS v", params_)
        .status();
  }

  void Exec(const std::string& q) {
    auto r = db_.Execute(q);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status();
  }

  size_t Rows(const std::string& q) {
    auto r = db_.Execute(q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status();
    return r.ok() ? r->rows.size() : 0;
  }

  Database db_;
  Params params_;
};

TEST_F(EvalTest, Arithmetic) {
  EXPECT_EQ(Eval("1 + 2 * 3").int_value(), 7);
  EXPECT_EQ(Eval("7 / 2").int_value(), 3);  // integer division
  EXPECT_DOUBLE_EQ(Eval("7.0 / 2").double_value(), 3.5);
  EXPECT_EQ(Eval("7 % 3").int_value(), 1);
  EXPECT_DOUBLE_EQ(Eval("2 ^ 10").double_value(), 1024.0);
  EXPECT_EQ(Eval("-(3)").int_value(), -3);
  EXPECT_EQ(Eval("1 - 2 - 3").int_value(), -4);  // left assoc
}

TEST_F(EvalTest, DivisionByZeroIsError) {
  EXPECT_EQ(EvalError("1 / 0").code(), StatusCode::kTypeError);
  EXPECT_EQ(EvalError("1 % 0").code(), StatusCode::kTypeError);
}

// AND, OR, XOR and NOT type-check every operand before reading it as a
// boolean (an integer operand read as a bool is undefined behavior).
TEST_F(EvalTest, BooleanOperatorsRejectNonBooleanOperands) {
  const std::pair<const char*, const char*> kCases[] = {
      {"160 AND true", "AND requires booleans"},
      {"true AND 160", "AND requires booleans"},
      {"160 OR false", "OR requires booleans"},
      {"false OR 160", "OR requires booleans"},
      {"160 XOR true", "XOR requires booleans"},
      {"true XOR 160", "XOR requires booleans"},
      {"null XOR 160", "XOR requires booleans"},
      {"NOT 160", "NOT requires a boolean"},
  };
  for (const auto& [expr, message] : kCases) {
    Status st = EvalError(expr);
    EXPECT_EQ(st.code(), StatusCode::kTypeError) << expr << ": " << st;
    EXPECT_NE(st.message().find(message), std::string::npos)
        << expr << ": " << st;
  }
}

TEST_F(EvalTest, NullPropagationInArithmetic) {
  EXPECT_TRUE(Eval("1 + null").is_null());
  EXPECT_TRUE(Eval("null * 2").is_null());
  EXPECT_TRUE(Eval("-(null)").is_null());
}

TEST_F(EvalTest, StringConcatenation) {
  EXPECT_EQ(Eval("'a' + 'b'").string_value(), "ab");
  EXPECT_EQ(Eval("'a' + 1").string_value(), "a1");
  EXPECT_EQ(Eval("1 + 'a'").string_value(), "1a");
}

TEST_F(EvalTest, ListConcatenation) {
  EXPECT_EQ(Eval("[1] + [2, 3]").list_value().size(), 3u);
  EXPECT_EQ(Eval("[1] + 2").list_value().size(), 2u);
}

TEST_F(EvalTest, ComparisonsWithTernaryLogic) {
  EXPECT_TRUE(Eval("1 < 2").bool_value());
  EXPECT_TRUE(Eval("2 <= 2").bool_value());
  EXPECT_FALSE(Eval("'a' > 'b'").bool_value());
  EXPECT_TRUE(Eval("1 = 1.0").bool_value());
  EXPECT_TRUE(Eval("1 <> 2").bool_value());
  EXPECT_TRUE(Eval("null = null").is_null());
  EXPECT_TRUE(Eval("1 < null").is_null());
  EXPECT_TRUE(Eval("1 < 'a'").is_null());  // incomparable types
}

TEST_F(EvalTest, BooleanThreeValuedLogic) {
  EXPECT_FALSE(Eval("false AND null").bool_value());  // false dominates
  EXPECT_TRUE(Eval("true OR null").bool_value());     // true dominates
  EXPECT_TRUE(Eval("true AND null").is_null());
  EXPECT_TRUE(Eval("false OR null").is_null());
  EXPECT_TRUE(Eval("NOT null").is_null());
  EXPECT_TRUE(Eval("true XOR false").bool_value());
  EXPECT_TRUE(Eval("true XOR null").is_null());
}

TEST_F(EvalTest, InOperator) {
  EXPECT_TRUE(Eval("2 IN [1, 2, 3]").bool_value());
  EXPECT_FALSE(Eval("5 IN [1, 2, 3]").bool_value());
  EXPECT_TRUE(Eval("5 IN [1, null]").is_null());  // unknown membership
  EXPECT_TRUE(Eval("null IN [1]").is_null());
  // Non-literal lists take the general path.
  EXPECT_TRUE(Eval("x IN [1, x]", "WITH 2 AS x").bool_value());
  EXPECT_TRUE(Eval("5 IN [1, x]", "WITH null AS x").is_null());
}

TEST_F(EvalTest, StringPredicates) {
  EXPECT_TRUE(Eval("'hello' STARTS WITH 'he'").bool_value());
  EXPECT_TRUE(Eval("'hello' ENDS WITH 'lo'").bool_value());
  EXPECT_TRUE(Eval("'hello' CONTAINS 'ell'").bool_value());
  EXPECT_FALSE(Eval("'hello' CONTAINS 'x'").bool_value());
  EXPECT_TRUE(Eval("null STARTS WITH 'a'").is_null());
}

TEST_F(EvalTest, IsNullOperators) {
  EXPECT_TRUE(Eval("null IS NULL").bool_value());
  EXPECT_FALSE(Eval("1 IS NULL").bool_value());
  EXPECT_TRUE(Eval("1 IS NOT NULL").bool_value());
}

TEST_F(EvalTest, CaseExpressions) {
  EXPECT_EQ(Eval("CASE 2 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END")
                .string_value(),
            "b");
  EXPECT_EQ(Eval("CASE WHEN false THEN 1 ELSE 2 END").int_value(), 2);
  EXPECT_TRUE(Eval("CASE WHEN false THEN 1 END").is_null());
}

TEST_F(EvalTest, IndexingListsAndMaps) {
  EXPECT_EQ(Eval("[10, 20, 30][1]").int_value(), 20);
  EXPECT_EQ(Eval("[10, 20, 30][-1]").int_value(), 30);
  EXPECT_TRUE(Eval("[10][5]").is_null());
  EXPECT_EQ(Eval("{a: 1}['a']").int_value(), 1);
  EXPECT_TRUE(Eval("{a: 1}['b']").is_null());
}

TEST_F(EvalTest, Parameters) {
  params_["p"] = Value::Int(99);
  EXPECT_EQ(Eval("$p + 1").int_value(), 100);
  EXPECT_EQ(EvalError("$missing").code(), StatusCode::kInvalidArgument);
}

TEST_F(EvalTest, UnboundVariableIsError) {
  EXPECT_EQ(EvalError("nope").code(), StatusCode::kInvalidArgument);
}

TEST_F(EvalTest, ScalarFunctions) {
  EXPECT_EQ(Eval("abs(-5)").int_value(), 5);
  EXPECT_EQ(Eval("sign(-2)").int_value(), -1);
  EXPECT_EQ(Eval("toInteger('42')").int_value(), 42);
  EXPECT_TRUE(Eval("toInteger('x')").is_null());
  EXPECT_DOUBLE_EQ(Eval("toFloat(3)").double_value(), 3.0);
  EXPECT_EQ(Eval("toString(42)").string_value(), "42");
  EXPECT_EQ(Eval("toUpper('ab')").string_value(), "AB");
  EXPECT_EQ(Eval("toLower('AB')").string_value(), "ab");
  EXPECT_EQ(Eval("trim('  x ')").string_value(), "x");
  EXPECT_EQ(Eval("size('abc')").int_value(), 3);
  EXPECT_EQ(Eval("size([1, 2])").int_value(), 2);
  EXPECT_EQ(Eval("coalesce(null, null, 7)").int_value(), 7);
  EXPECT_EQ(Eval("head([1, 2])").int_value(), 1);
  EXPECT_EQ(Eval("last([1, 2])").int_value(), 2);
  EXPECT_EQ(Eval("tail([1, 2, 3])").list_value().size(), 2u);
  EXPECT_EQ(Eval("range(1, 5)").list_value().size(), 5u);
  EXPECT_EQ(Eval("range(5, 1, -2)").list_value().size(), 3u);
  EXPECT_EQ(Eval("split('a,b', ',')").list_value().size(), 2u);
  EXPECT_EQ(Eval("substring('hello', 1, 3)").string_value(), "ell");
  EXPECT_EQ(Eval("replace('aaa', 'a', 'b')").string_value(), "bbb");
  EXPECT_EQ(Eval("left('hello', 2)").string_value(), "he");
  EXPECT_EQ(Eval("right('hello', 2)").string_value(), "lo");
  EXPECT_EQ(Eval("reverse('abc')").string_value(), "cba");
}

TEST_F(EvalTest, TemporalFunctionsUseLogicalClock) {
  Value t1 = Eval("datetime()");
  Value t2 = Eval("datetime()");
  EXPECT_LT(t1.datetime_value().micros, t2.datetime_value().micros);
  EXPECT_EQ(t1.datetime_value().micros, 1000);
  EXPECT_EQ(Eval("timestamp()").type(), ValueType::kInt);
}

TEST_F(EvalTest, UnknownFunctionIsError) {
  EXPECT_EQ(EvalError("frobnicate(1)").code(), StatusCode::kNotFound);
}

TEST_F(EvalTest, AggregateOutsideProjectionIsError) {
  EXPECT_EQ(EvalError("1", "WITH 1 AS x WHERE COUNT(x) > 0").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EvalTest, NodePropertyAccess) {
  Exec("CREATE (:P {age: 30})");
  EXPECT_EQ(Eval("n.age", "MATCH (n:P)").int_value(), 30);
  EXPECT_TRUE(Eval("n.unknown", "MATCH (n:P)").is_null());
}

TEST_F(EvalTest, PropertyAccessOnNullIsNull) {
  EXPECT_TRUE(Eval("n.age", "WITH null AS n").is_null());
}

TEST_F(EvalTest, PropertyAccessOnScalarIsTypeError) {
  EXPECT_EQ(EvalError("n.age", "WITH 1 AS n").code(), StatusCode::kTypeError);
}

TEST_F(EvalTest, MapPropertyAccess) {
  EXPECT_EQ(Eval("m.k", "WITH {k: 5} AS m").int_value(), 5);
}

TEST_F(EvalTest, LabelTestExpression) {
  Exec("CREATE (:A:B)");
  EXPECT_TRUE(Eval("n:A", "MATCH (n)").bool_value());
  EXPECT_TRUE(Eval("n:A:B", "MATCH (n)").bool_value());
  EXPECT_FALSE(Eval("n:A:Missing", "MATCH (n)").bool_value());
}

TEST_F(EvalTest, LabelsAndIdAndTypeFunctions) {
  Exec("CREATE (:X {k: 'a'})-[:KNOWS]->(:Y {k: 'b'})");
  const std::string bind = "MATCH (a:X)-[r]->(b:Y)";
  EXPECT_EQ(Eval("labels(a)", bind).list_value()[0].string_value(), "X");
  EXPECT_EQ(Eval("type(r)", bind).string_value(), "KNOWS");
  EXPECT_EQ(Eval("id(a)", bind).int_value(), 0);
  EXPECT_EQ(Eval("startNode(r).k", bind).string_value(), "a");
  EXPECT_EQ(Eval("endNode(r).k", bind).string_value(), "b");
}

TEST_F(EvalTest, KeysAndPropertiesFunctions) {
  Exec("CREATE (:P {a: 1, b: 2})");
  EXPECT_EQ(Eval("size(keys(n))", "MATCH (n:P)").int_value(), 2);
  EXPECT_EQ(Eval("properties(n).a", "MATCH (n:P)").int_value(), 1);
}

// OLD property reads inside a trigger see the pre-statement value; NEW
// reads see the live store.
TEST_F(EvalTest, OldViewOverlayReadsOldPropertyValue) {
  Exec("CREATE (:P {v: 1})");
  Exec("CREATE TRIGGER T AFTER SET ON 'P'.'v' FOR EACH NODE BEGIN "
       "CREATE (:Out {old: OLD.v, new: NEW.v, diff: OLD.v <> NEW.v}) END");
  Exec("MATCH (p:P) SET p.v = 2");
  const std::string bind = "MATCH (o:Out)";
  EXPECT_EQ(Eval("o.old", bind).int_value(), 1);  // overlay
  EXPECT_EQ(Eval("o.new", bind).int_value(), 2);  // live store
  EXPECT_TRUE(Eval("o.diff", bind).bool_value());
}

// Snapshot reads evaluate against the pinned state.
TEST_F(EvalTest, SnapshotPropertyReads) {
  Exec("CREATE (:P {v: 1})");
  auto snap = db_.OpenSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status();
  Exec("MATCH (p:P) SET p.v = 2");
  auto at = db_.QueryAt(**snap, "MATCH (p:P) RETURN p.v + 10 AS v");
  ASSERT_TRUE(at.ok()) << at.status();
  EXPECT_EQ(at->rows[0][0].int_value(), 11);
  EXPECT_EQ(Eval("p.v + 10", "MATCH (p:P)").int_value(), 12);
}

TEST_F(EvalTest, PredicateSemantics) {
  EXPECT_EQ(Rows("WITH 1 AS x WHERE 1 < 2 RETURN x"), 1u);
  EXPECT_EQ(Rows("WITH 1 AS x WHERE 1 > 2 RETURN x"), 0u);
  EXPECT_EQ(Rows("WITH 1 AS x WHERE null = 1 RETURN x"), 0u);  // NULL fails
  EXPECT_EQ(db_.Execute("WITH 1 AS x WHERE 'yes' RETURN x").status().code(),
            StatusCode::kTypeError);
}

// Aggregate detection decides grouping: an item with an aggregate (outside
// EXISTS) collapses the rows into groups.
TEST_F(EvalTest, ContainsAggregateDetection) {
  const std::string two = "UNWIND [1, 2] AS x RETURN ";
  EXPECT_EQ(Rows(two + "COUNT(*) AS c"), 1u);
  EXPECT_EQ(Rows(two + "1 + SUM(x) AS c"), 1u);
  EXPECT_EQ(Eval("c", "UNWIND [1, 2] AS x WITH 1 + SUM(x) AS c").int_value(),
            4);
  EXPECT_EQ(Rows(two + "COLLECT(x * 2) AS c"), 1u);
  EXPECT_EQ(Rows(two + "size([1]) AS c"), 2u);
  EXPECT_EQ(Rows(two + "EXISTS { MATCH (a) } AS c"), 2u);  // own scope
}

}  // namespace
}  // namespace pgt
