#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "text/query.h"

namespace mm2::text {
namespace {

using instance::Value;
using logic::Term;

TEST(QueryParserTest, ParsesJoinQuery) {
  auto q = ParseQuery("Q(x, y) :- Listing(s, x, \"CS\"), Person(s, y)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->head.relation, "Q");
  ASSERT_EQ(q->head.terms.size(), 2u);
  EXPECT_EQ(q->head.terms[0], Term::Var("x"));
  ASSERT_EQ(q->body.size(), 2u);
  EXPECT_EQ(q->body[0].relation, "Listing");
  EXPECT_EQ(q->body[0].terms[2], Term::Const(Value::String("CS")));
  EXPECT_EQ(q->body[1].terms[0], Term::Var("s"));
}

TEST(QueryParserTest, LiteralForms) {
  auto q = ParseQuery(
      "Q(x) :- R(x, 42, -7, 2.5, #t, #f, null, \"with \\\" quote\")");
  ASSERT_TRUE(q.ok()) << q.status();
  const auto& terms = q->body[0].terms;
  EXPECT_EQ(terms[1], Term::Const(Value::Int64(42)));
  EXPECT_EQ(terms[2], Term::Const(Value::Int64(-7)));
  EXPECT_EQ(terms[3], Term::Const(Value::Double(2.5)));
  EXPECT_EQ(terms[4], Term::Const(Value::Bool(true)));
  EXPECT_EQ(terms[5], Term::Const(Value::Bool(false)));
  EXPECT_EQ(terms[6], Term::Const(Value::Null()));
  EXPECT_EQ(terms[7], Term::Const(Value::String("with \" quote")));
}

TEST(QueryParserTest, WhitespaceInsensitive) {
  auto compact = ParseQuery("Q(x):-R(x,y),S(y)");
  auto spaced = ParseQuery("  Q( x )  :-  R( x , y ) ,  S( y )  ");
  ASSERT_TRUE(compact.ok() && spaced.ok());
  EXPECT_EQ(compact->ToString(), spaced->ToString());
}

TEST(QueryParserTest, DollarColumnsParse) {
  // $type appears in entity-set queries.
  auto q = ParseQuery("Q(t) :- Persons($type, i, n), T(t)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->body[0].terms[0], Term::Var("$type"));
}

TEST(QueryParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("Q(x)").ok());                  // no body
  EXPECT_FALSE(ParseQuery("Q(x) :- ").ok());              // empty body
  EXPECT_FALSE(ParseQuery("Q(x) :- R(x").ok());           // unclosed
  EXPECT_FALSE(ParseQuery("Q(x) :- R(x) extra").ok());    // trailing junk
  EXPECT_FALSE(ParseQuery("Q(z) :- R(x)").ok());          // unsafe head
  EXPECT_FALSE(ParseQuery("Q(x) :- R(\"open").ok());      // bad string
  EXPECT_FALSE(ParseQuery("Q(x) :- R(#x)").ok());         // bad bool
}

// Numbers follow text::ParseScalarToken: no clamping, no infinity.
TEST(QueryParserTest, OutOfRangeAndNonFiniteNumbersRejected) {
  for (const char* bad : {"1e999", "-1e999", "99999999999999999999"}) {
    auto q = ParseQuery(std::string("Q(x) :- R(x, ") + bad + ")");
    ASSERT_FALSE(q.ok()) << bad;
    EXPECT_NE(q.status().message().find(std::string("'") + bad + "'"),
              std::string::npos)
        << q.status();
  }
  auto q = ParseQuery("Q(x) :- R(x, 1e+308, -9223372036854775808, 2.5e-3)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->body[0].terms[1], Term::Const(Value::Double(1e308)));
  EXPECT_EQ(q->body[0].terms[2], Term::Const(Value::Int64(INT64_MIN)));
  EXPECT_EQ(q->body[0].terms[3], Term::Const(Value::Double(2.5e-3)));
}

TEST(QueryParserTest, RoundTripThroughToString) {
  auto q = ParseQuery("Q(x) :- R(x, \"a\"), S(x, 3)");
  ASSERT_TRUE(q.ok());
  auto again = ParseQuery(QueryToText(*q));
  ASSERT_TRUE(again.ok()) << again.status() << " from " << QueryToText(*q);
  EXPECT_EQ(again->ToString(), q->ToString());
}

}  // namespace
}  // namespace mm2::text
