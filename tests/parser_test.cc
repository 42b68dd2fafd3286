#include "dc/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "paper_example.h"

namespace cvrepair {
namespace {

using testing_fixture::PaperIncomeRelation;

TEST(ParserTest, ParsesTwoTupleDc) {
  Relation rel = PaperIncomeRelation();
  ParseConstraintResult r =
      ParseConstraint(rel.schema(), "not(t0.Name=t1.Name & t0.CP!=t1.CP)");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.constraint->size(), 2);
  EXPECT_EQ(r.constraint->NumTupleVars(), 2);
}

TEST(ParserTest, ParsesNamePrefix) {
  Relation rel = PaperIncomeRelation();
  ParseConstraintResult r = ParseConstraint(
      rel.schema(), "my_dc: not(t0.Income>t1.Income & t0.Tax<=t1.Tax)");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.constraint->name(), "my_dc");
}

TEST(ParserTest, ParsesConstantsTypedByAttribute) {
  Relation rel = PaperIncomeRelation();
  ParseConstraintResult r =
      ParseConstraint(rel.schema(), "not(t0.Income>=100)");
  ASSERT_TRUE(r.ok()) << r.error;
  const Predicate& p = r.constraint->predicates()[0];
  ASSERT_TRUE(p.has_constant());
  EXPECT_EQ(p.constant(), Value::Double(100));
  EXPECT_EQ(r.constraint->NumTupleVars(), 1);

  r = ParseConstraint(rel.schema(), "not(t0.Name='Ayres' & t0.Tax>0)");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.constraint->size(), 2);
}

TEST(ParserTest, ParsesFdSugar) {
  Relation rel = PaperIncomeRelation();
  ParseConstraintResult r =
      ParseConstraint(rel.schema(), "Name,Birthday -> CP");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(*r.constraint, testing_fixture::Phi2(rel));
}

TEST(ParserTest, UnicodeOperators) {
  Relation rel = PaperIncomeRelation();
  ParseConstraintResult r = ParseConstraint(
      rel.schema(), "not(t0.Income>t1.Income & t0.Tax≤t1.Tax)");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(*r.constraint, testing_fixture::Phi4(rel));
}

TEST(ParserTest, RoundTripsToString) {
  Relation rel = PaperIncomeRelation();
  for (const DenialConstraint& c :
       {testing_fixture::Phi1(rel), testing_fixture::Phi4Prime(rel)}) {
    ParseConstraintResult r =
        ParseConstraint(rel.schema(), c.ToString(rel.schema()));
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(*r.constraint, c);
  }
}

// Constants the bare rendering used to change: a double past %g's 6
// digits, quoted strings the parser would trim, extend into a longer
// operator, take for a tuple variable or type as a number.
TEST(ParserTest, ConstantsRoundTripThroughToString) {
  Relation rel = PaperIncomeRelation();
  const Schema& schema = rel.schema();
  for (const char* text :
       {"not(t0.Tax<4.7278491234)", "not(t0.CP='New York\r')",
        "not(t0.CP=' x')", "not(t0.CP<'=x')", "not(t0.CP='t1.Name')",
        "not(t0.Year='5')", "not(t0.CP=''x'')",
        "not(t0.Name=Ayres & t0.Tax>0.1)"}) {
    ParseConstraintResult r = ParseConstraint(schema, text);
    ASSERT_TRUE(r.ok()) << text << ": " << r.error;
    const std::string rendered = r.constraint->ToString(schema);
    ParseConstraintResult again = ParseConstraint(schema, rendered);
    ASSERT_TRUE(again.ok()) << rendered << ": " << again.error;
    EXPECT_EQ(*again.constraint, *r.constraint) << text << " -> " << rendered;
  }
  // A constant that parses back bare keeps its bare form.
  ParseConstraintResult plain =
      ParseConstraint(schema, "not(t0.Name='Ayres' & t0.Tax>0.1)");
  ASSERT_TRUE(plain.ok()) << plain.error;
  EXPECT_EQ(plain.constraint->ToString(schema),
            "not(t0.Name=Ayres & t0.Tax>0.1)");
}

// '&' separates predicates and ';' constraints only outside a quoted
// constant, so a constant may hold either byte, and ToString quotes such a
// constant so that it reads back.
TEST(ParserTest, QuotedConstantsHoldAmpersandAndSemicolon) {
  Relation rel = PaperIncomeRelation();
  const Schema& schema = rel.schema();
  const AttrId name = *schema.Find("Name");

  ParseConstraintResult amp =
      ParseConstraint(schema, "not(t0.Name='A&B' & t0.CP!=t1.CP)");
  ASSERT_TRUE(amp.ok()) << amp.error;
  ASSERT_EQ(amp.constraint->size(), 2);
  EXPECT_EQ(amp.constraint->predicates()[0].constant(), Value::String("A&B"));

  ParseSetResult semi =
      ParseConstraintSet(schema, "not(t0.Name='A;B'); not(t0.CP='x')\n");
  ASSERT_TRUE(semi.ok()) << semi.error;
  ASSERT_EQ(semi.constraints->size(), 2u);
  EXPECT_EQ((*semi.constraints)[0].predicates()[0].constant(),
            Value::String("A;B"));
  // A comment still ends at the next ';', whatever quotes it holds.
  ParseSetResult commented =
      ParseConstraintSet(schema, "# it's; not(t0.CP='x')\n");
  ASSERT_TRUE(commented.ok()) << commented.error;
  EXPECT_EQ(commented.constraints->size(), 1u);

  // Only a quote that opens an operand holds separators: an apostrophe
  // inside a bare constant hides none, so these are two predicates and,
  // split by ';', two constraints.
  ParseConstraintResult names =
      ParseConstraint(schema, "not(t0.Name=O'Brien & t0.CP=D'Arcy)");
  ASSERT_TRUE(names.ok()) << names.error;
  ASSERT_EQ(names.constraint->size(), 2);
  EXPECT_EQ(names.constraint->predicates()[0].constant(),
            Value::String("O'Brien"));
  EXPECT_EQ(names.constraint->predicates()[1].constant(),
            Value::String("D'Arcy"));
  ParseSetResult split =
      ParseConstraintSet(schema, "not(t0.Name=O'Brien); not(t0.CP=D'Arcy)\n");
  ASSERT_TRUE(split.ok()) << split.error;
  ASSERT_EQ(split.constraints->size(), 2u);
  EXPECT_EQ((*split.constraints)[1].predicates()[0].constant(),
            Value::String("D'Arcy"));
  // The quote that opens an operand closes at the next one; what follows
  // is read bare, so this constant is the whole operand.
  ParseConstraintResult tail =
      ParseConstraint(schema, "not(t0.Name='A&B'C & t0.CP='x')");
  ASSERT_TRUE(tail.ok()) << tail.error;
  ASSERT_EQ(tail.constraint->size(), 2);
  EXPECT_EQ(tail.constraint->predicates()[0].constant(),
            Value::String("'A&B'C"));
  // Inside a quoted constant, '' stands for one quote.
  ParseSetResult escaped = ParseConstraintSet(
      schema,
      "not(t0.Name='it''s & more'); not(t0.Name='''a;b''' & t0.CP='x')\n");
  ASSERT_TRUE(escaped.ok()) << escaped.error;
  ASSERT_EQ(escaped.constraints->size(), 2u);
  EXPECT_EQ((*escaped.constraints)[0].predicates()[0].constant(),
            Value::String("it's & more"));
  ASSERT_EQ((*escaped.constraints)[1].size(), 2);
  EXPECT_EQ((*escaped.constraints)[1].predicates()[0].constant(),
            Value::String("'a;b'"));

  ConstraintSet built = {
      DenialConstraint(
          {Predicate::WithConstant(0, name, Op::kEq, Value::String("A&B"))},
          "amp"),
      DenialConstraint(
          {Predicate::WithConstant(0, name, Op::kEq, Value::String("A;B"))},
          "semi"),
      *names.constraint, *tail.constraint};
  built.insert(built.end(), split.constraints->begin(),
               split.constraints->end());
  // Every string has a text form, quotes and separators together.
  for (const char* text : {"it's & more", "a'&b", "a';b", "'a;b'", "O'Brien",
                           "x'y", "'A&B'C", "'", "''", "a'"}) {
    built.push_back(DenialConstraint(
        {Predicate::WithConstant(0, name, Op::kEq, Value::String(text)),
         Predicate::WithConstant(1, name, Op::kNeq, Value::String(text))}));
  }
  const std::string rendered = ToString(built, schema);
  ParseSetResult again = ParseConstraintSet(schema, rendered);
  ASSERT_TRUE(again.ok()) << rendered << ": " << again.error;
  EXPECT_EQ(*again.constraints, built) << rendered;
  EXPECT_EQ((*again.constraints)[1].name(), "semi");
}

TEST(ParserTest, ErrorMessages) {
  Relation rel = PaperIncomeRelation();
  EXPECT_FALSE(ParseConstraint(rel.schema(), "nonsense").ok());
  EXPECT_FALSE(ParseConstraint(rel.schema(), "not()").ok());
  EXPECT_FALSE(
      ParseConstraint(rel.schema(), "not(t0.Missing=t1.Missing)").ok());
  EXPECT_FALSE(ParseConstraint(rel.schema(), "not(t0.Name~t1.Name)").ok());
  EXPECT_FALSE(ParseConstraint(rel.schema(), "not(t2.Name=t1.Name)").ok());
  EXPECT_FALSE(ParseConstraint(rel.schema(), "Missing -> CP").ok());
  EXPECT_FALSE(ParseConstraint(rel.schema(), " -> CP").ok());
}

// Tuple variables are exactly t0 or t1, and numeric constants finite
// numbers in range of the attribute's type; anything else is an error, not
// a silent reinterpretation: t0x.Name is not t0.Name, an overflowing
// integer is not clamped to 2^63 - 1, and nan, which no order can place,
// is no constant.
TEST(ParserTest, RejectsMalformedOperands) {
  Relation rel = PaperIncomeRelation();
  const Schema& schema = rel.schema();
  const std::vector<std::string> rejected = {
      "not(t0x.Name=t1.Name)",
      "not(t0.Name=t1abc.Name)",
      "not(t00.Name=t1.Name)",
      "not(t0.Year>99999999999999999999)",
      "not(t0.Year<-99999999999999999999)",
      "not(t0.Income>nan)",
      "not(t0.Income>NaN)",
      "not(t0.Income<inf)",
      "not(t0.Income>-inf)",
      "not(t0.Income>1e999)",
  };
  for (const std::string& text : rejected) {
    ParseConstraintResult r = ParseConstraint(schema, text);
    EXPECT_FALSE(r.ok()) << text;
    EXPECT_FALSE(r.error.empty()) << text;
  }
  // Every finite in-range constant still parses, signs included.
  const std::vector<std::string> accepted = {
      "not(t0.Year>+5)",
      "not(t0.Year<-5)",
      "not(t0.Income>+5)",
      "not(t0.Income>1e300)",
      "not(t0.Income>-2.5e-3)",
      "not(t0.Year>9223372036854775807)",
      "not(t0.Name='t0x.Name')",
  };
  for (const std::string& text : accepted) {
    ParseConstraintResult r = ParseConstraint(schema, text);
    EXPECT_TRUE(r.ok()) << text << ": " << r.error;
  }
  ParseConstraintResult plus = ParseConstraint(schema, "not(t0.Year>+5)");
  ASSERT_TRUE(plus.ok());
  EXPECT_EQ(plus.constraint->predicates()[0].constant(), Value::Int(5));
}

TEST(ParserTest, ConstraintSetWithCommentsAndSeparators) {
  Relation rel = PaperIncomeRelation();
  ParseSetResult r = ParseConstraintSet(rel.schema(),
                                        "# a comment\n"
                                        "Name,Birthday -> CP\n"
                                        "\n"
                                        "not(t0.Tax>t0.Income); "
                                        "not(t0.Income>t1.Income & "
                                        "t0.Tax<t1.Tax)\n");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.constraints->size(), 3u);
}

TEST(ParserTest, ConstraintSetPropagatesErrors) {
  Relation rel = PaperIncomeRelation();
  ParseSetResult r =
      ParseConstraintSet(rel.schema(), "Name -> CP\nbroken line\n");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("broken line"), std::string::npos);
}

}  // namespace
}  // namespace cvrepair
