#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "paper_example.h"
#include "relation/csv.h"
#include "relation/domain_stats.h"
#include "relation/relation.h"

namespace cvrepair {
namespace {

using testing_fixture::PaperIncomeRelation;

TEST(SchemaTest, FindAndProperties) {
  Relation rel = PaperIncomeRelation();
  const Schema& s = rel.schema();
  EXPECT_EQ(s.num_attributes(), 6);
  ASSERT_TRUE(s.Find("Income").has_value());
  EXPECT_EQ(*s.Find("Income"), 4);
  EXPECT_FALSE(s.Find("Nope").has_value());
  EXPECT_TRUE(s.is_numeric(*s.Find("Year")));
  EXPECT_FALSE(s.is_numeric(*s.Find("Name")));
}

TEST(RelationTest, DomainExcludesNullAndFresh) {
  Relation rel = PaperIncomeRelation();
  AttrId tax = *rel.schema().Find("Tax");
  EXPECT_EQ(rel.Domain(tax).size(), 4u);  // {0, 3, 21, 40}
  rel.SetValue(0, tax, Value::Null());
  rel.SetValue(3, tax, rel.NextFresh());
  std::vector<Value> dom = rel.Domain(tax);
  EXPECT_EQ(dom.size(), 3u);  // 0 still present via other rows; 3 gone
  for (const Value& v : dom) {
    EXPECT_FALSE(v.is_null());
    EXPECT_FALSE(v.is_fresh());
  }
}

// Regression for the Domain() cache: every mutation path (SetValue by
// cell, SetValue by row/attr, AddRow, Truncate) bumps the relation
// version, so a cached domain can never be served stale — here each
// mutation in a repair-round-shaped sequence is followed by a comparison
// against a freshly copied relation whose cache is necessarily cold.
TEST(RelationTest, DomainCacheNeverStaleAcrossRepairRound) {
  Relation rel = PaperIncomeRelation();
  AttrId tax = *rel.schema().Find("Tax");
  AttrId name = *rel.schema().Find("Name");
  auto expect_fresh = [&](const char* context) {
    for (AttrId a : {tax, name}) {
      Relation cold = rel;  // copy: no shared cache, recomputes from rows
      EXPECT_EQ(rel.Domain(a), cold.Domain(a)) << context << " attr " << a;
    }
  };
  // Warm the cache, then mutate through every path a repair round uses.
  (void)rel.Domain(tax);
  (void)rel.Domain(name);
  rel.SetValue(0, tax, Value::Double(999));
  expect_fresh("SetValue(row, attr)");
  rel.SetValue({1, tax}, Value::Null());
  expect_fresh("SetValue(cell)");
  rel.SetValue({2, name}, rel.NextFresh());
  expect_fresh("fresh assignment");
  std::vector<Value> row;
  for (AttrId a = 0; a < rel.num_attributes(); ++a) row.push_back(rel.Get(0, a));
  rel.AddRow(std::move(row));
  expect_fresh("AddRow");
  rel.Truncate(rel.num_rows() - 1);
  expect_fresh("Truncate");
  // Repeated lookups with no interleaved writes are stable (served from
  // the cache) and still correct.
  std::vector<Value> first = rel.Domain(tax);
  EXPECT_EQ(rel.Domain(tax), first);
}

// CellHash must mix the full 32-bit row: with the row's high half dropped
// (the old bug), cells that differ only above bit 15 collide in bulk.
TEST(RelationTest, CellHashMixesFullRowRange) {
  CellHash hash;
  std::set<size_t> seen;
  int n = 0;
  for (int shift = 0; shift < 31; ++shift) {
    for (AttrId attr = 0; attr < 4; ++attr) {
      seen.insert(hash(Cell{1 << shift, attr}));
      ++n;
    }
  }
  // Large consecutive row ids (beyond 16 bits) with identical low bits.
  for (int i = 0; i < 64; ++i) {
    seen.insert(hash(Cell{(i << 20) | 7, 0}));
    ++n;
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(n));  // no collisions at all
}

TEST(RelationTest, TruncateAndFreshIds) {
  Relation rel = PaperIncomeRelation();
  rel.Truncate(4);
  EXPECT_EQ(rel.num_rows(), 4);
  Value f1 = rel.NextFresh();
  Value f2 = rel.NextFresh();
  EXPECT_NE(f1, f2);
}

TEST(DomainStatsTest, FrequenciesSortedAndQueryable) {
  Relation rel = PaperIncomeRelation();
  DomainStats stats(rel);
  AttrId name = *rel.schema().Find("Name");
  const AttrStats& s = stats.attr(name);
  ASSERT_EQ(s.frequencies.size(), 3u);
  // Dustin appears 4 times — the mode.
  EXPECT_EQ(s.frequencies[0].first, Value::String("Dustin"));
  EXPECT_EQ(s.frequencies[0].second, 4);
  EXPECT_EQ(stats.Frequency(name, Value::String("Ayres")), 3);
  EXPECT_EQ(stats.Frequency(name, Value::String("Nobody")), 0);

  AttrId income = *rel.schema().Find("Income");
  EXPECT_TRUE(stats.attr(income).has_numeric_range);
  EXPECT_DOUBLE_EQ(stats.attr(income).min, 21);
  EXPECT_DOUBLE_EQ(stats.attr(income).max, 150);
}

TEST(CsvTest, RoundTrip) {
  Relation rel = PaperIncomeRelation();
  std::string csv = WriteCsvString(rel);
  CsvResult parsed = ReadCsvString(rel.schema(), csv);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.relation->num_rows(), rel.num_rows());
  for (int i = 0; i < rel.num_rows(); ++i) {
    for (AttrId a = 0; a < rel.num_attributes(); ++a) {
      EXPECT_EQ(parsed.relation->Get(i, a), rel.Get(i, a))
          << "cell (" << i << "," << a << ")";
    }
  }
}

TEST(CsvTest, QuotingAndEscapes) {
  Schema schema;
  schema.AddAttribute("A", AttrType::kString);
  schema.AddAttribute("B", AttrType::kInt);
  Relation rel(schema);
  rel.AddRow({Value::String("has,comma"), Value::Int(1)});
  rel.AddRow({Value::String("has\"quote"), Value::Int(2)});
  CsvResult parsed = ReadCsvString(schema, WriteCsvString(rel));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.relation->Get(0, 0), Value::String("has,comma"));
  EXPECT_EQ(parsed.relation->Get(1, 0), Value::String("has\"quote"));
}

TEST(CsvTest, MultiLineQuotedRecords) {
  // RFC 4180: a quoted field may contain newlines, so one record spans
  // several input lines.
  Schema schema;
  schema.AddAttribute("A", AttrType::kString);
  schema.AddAttribute("B", AttrType::kInt);
  CsvResult parsed =
      ReadCsvString(schema, "A,B\n\"line one\nline two\",1\nplain,2\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.relation->num_rows(), 2);
  EXPECT_EQ(parsed.relation->Get(0, 0), Value::String("line one\nline two"));
  EXPECT_EQ(parsed.relation->Get(0, 1), Value::Int(1));
  EXPECT_EQ(parsed.relation->Get(1, 0), Value::String("plain"));
}

TEST(CsvTest, MultiLineRecordsRoundTrip) {
  Schema schema;
  schema.AddAttribute("A", AttrType::kString);
  Relation rel(schema);
  rel.AddRow({Value::String("a\nb\nc")});
  rel.AddRow({Value::String("quote\"and\nnewline")});
  CsvResult parsed = ReadCsvString(schema, WriteCsvString(rel));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.relation->num_rows(), 2);
  EXPECT_EQ(parsed.relation->Get(0, 0), Value::String("a\nb\nc"));
  EXPECT_EQ(parsed.relation->Get(1, 0), Value::String("quote\"and\nnewline"));
}

TEST(CsvTest, CrlfInsideAndOutsideQuotes) {
  Schema schema;
  schema.AddAttribute("A", AttrType::kString);
  schema.AddAttribute("B", AttrType::kInt);
  // CRLF record separators are consumed; a CRLF inside quotes is data.
  CsvResult parsed =
      ReadCsvString(schema, "A,B\r\n\"x\r\ny\",3\r\nz,4\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.relation->num_rows(), 2);
  EXPECT_EQ(parsed.relation->Get(0, 0), Value::String("x\r\ny"));
  EXPECT_EQ(parsed.relation->Get(1, 0), Value::String("z"));
}

// A carriage return inside a value is data: the writer must quote it, or
// the reader, which drops a bare '\r' as a CRLF line ending, loses it.
TEST(CsvTest, CarriageReturnsInValuesRoundTrip) {
  Schema schema;
  schema.AddAttribute("A", AttrType::kString);
  schema.AddAttribute("B", AttrType::kInt);
  CsvResult loaded = ReadCsvString(schema, "A,B\n\"a\rb\",1\n\"a\r\",2\n");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ASSERT_EQ(loaded.relation->num_rows(), 2);
  EXPECT_EQ(loaded.relation->Get(0, 0), Value::String("a\rb"));
  EXPECT_EQ(loaded.relation->Get(1, 0), Value::String("a\r"));

  CsvResult reread =
      ReadCsvString(schema, WriteCsvString(*loaded.relation));
  ASSERT_TRUE(reread.ok()) << reread.error;
  ASSERT_EQ(reread.relation->num_rows(), 2);
  for (int r = 0; r < 2; ++r) {
    for (AttrId a = 0; a < 2; ++a) {
      EXPECT_EQ(reread.relation->Get(r, a), loaded.relation->Get(r, a))
          << "cell (" << r << "," << a << ")";
    }
  }
  EXPECT_EQ(reread.relation->Get(0, 0).as_string(), "a\rb");
  EXPECT_EQ(reread.relation->Get(1, 0).as_string(), "a\r");
}

// Doubles are written with every digit they need: a value %g would round
// to 6 significant digits reads back unchanged.
TEST(CsvTest, DoublesRoundTripExactly) {
  Schema schema;
  schema.AddAttribute("D", AttrType::kDouble);
  schema.AddAttribute("S", AttrType::kString);
  Relation rel(schema);
  for (double d : {4.7278491234, 1.0 / 3.0, -1234567.25, 1e-7 / 3.0, 0.1,
                   2.75, 1e16 + 2.0}) {
    rel.AddRow({Value::Double(d), Value::String("x")});
  }
  const std::string written = WriteCsvString(rel);
  CsvResult parsed = ReadCsvString(schema, written);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.relation->num_rows(), rel.num_rows());
  for (int r = 0; r < rel.num_rows(); ++r) {
    EXPECT_EQ(parsed.relation->Get(r, 0), rel.Get(r, 0)) << written;
  }
  // Values %g already prints exactly keep their short form.
  EXPECT_NE(written.find("\n0.1,x\n2.75,x\n"), std::string::npos) << written;
}

// With one attribute, a NULL row must not become a blank line, which the
// reader skips.
TEST(CsvTest, SingleColumnNullRowsRoundTrip) {
  Schema schema;
  schema.AddAttribute("A", AttrType::kString);
  Relation rel(schema);
  rel.AddRow({Value::String("a")});
  rel.AddRow({Value::Null()});
  rel.AddRow({Value::String("b")});
  CsvResult parsed = ReadCsvString(schema, WriteCsvString(rel));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.relation->num_rows(), 3);
  EXPECT_TRUE(parsed.relation->Get(1, 0).is_null());
  EXPECT_EQ(parsed.relation->Get(2, 0), Value::String("b"));
}

TEST(CsvTest, UnterminatedQuoteIsAnError) {
  Schema schema;
  schema.AddAttribute("A", AttrType::kString);
  CsvResult parsed = ReadCsvString(schema, "A\n\"never closed\nmore text");
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("unterminated"), std::string::npos)
      << parsed.error;
  EXPECT_NE(parsed.error.find("line 2"), std::string::npos) << parsed.error;
  // Same for a header left open.
  EXPECT_FALSE(ReadCsvString(schema, "\"A").ok());
}

TEST(CsvTest, FieldCountErrorReportsRecordStartLine) {
  Schema schema;
  schema.AddAttribute("A", AttrType::kString);
  schema.AddAttribute("B", AttrType::kInt);
  // The bad record starts on line 4 (record 2 spans lines 2-3).
  CsvResult parsed =
      ReadCsvString(schema, "A,B\n\"two\nlines\",1\nonly_one_field\n");
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("line 4"), std::string::npos) << parsed.error;
}

TEST(CsvTest, ErrorsAreReported) {
  Schema schema;
  schema.AddAttribute("A", AttrType::kString);
  EXPECT_FALSE(ReadCsvString(schema, "").ok());
  EXPECT_FALSE(ReadCsvString(schema, "Wrong\nx").ok());
  EXPECT_FALSE(ReadCsvString(schema, "A\nx,y").ok());
  EXPECT_FALSE(ReadCsvFile(schema, "/nonexistent/file.csv").ok());
}

TEST(CsvTest, BadNumericFieldsBecomeNull) {
  Schema schema;
  schema.AddAttribute("N", AttrType::kInt);
  CsvResult parsed = ReadCsvString(schema, "N\nabc\n\n42\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.relation->num_rows(), 2);
  EXPECT_TRUE(parsed.relation->Get(0, 0).is_null());
  EXPECT_EQ(parsed.relation->Get(1, 0), Value::Int(42));
}

// A numeric field is a value only if the whole token is a finite, in-range
// number of its column type; nan, inf and overflow load as NULL, while
// every finite spelling the parser always accepted still loads.
TEST(CsvTest, NonFiniteAndOverflowingNumericFieldsBecomeNull) {
  Schema schema;
  schema.AddAttribute("D", AttrType::kDouble);
  schema.AddAttribute("I", AttrType::kInt);
  CsvResult parsed = ReadCsvString(schema,
                                   "D,I\n"
                                   "nan,99999999999999999999\n"
                                   "inf,-99999999999999999999\n"
                                   "-inf,1e3\n"
                                   "1e999,nan\n"
                                   "NAN,inf\n"
                                   "+5,+5\n"
                                   "-2.5e2,-7\n"
                                   "1e-3,9223372036854775807\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const Relation& rel = *parsed.relation;
  ASSERT_EQ(rel.num_rows(), 8);
  for (int r = 0; r < 5; ++r) {
    EXPECT_TRUE(rel.Get(r, 0).is_null()) << "row " << r;
    EXPECT_TRUE(rel.Get(r, 1).is_null()) << "row " << r;
  }
  EXPECT_EQ(rel.Get(5, 0), Value::Double(5.0));
  EXPECT_EQ(rel.Get(5, 1), Value::Int(5));
  EXPECT_EQ(rel.Get(6, 0), Value::Double(-250.0));
  EXPECT_EQ(rel.Get(6, 1), Value::Int(-7));
  EXPECT_EQ(rel.Get(7, 0), Value::Double(0.001));
  EXPECT_EQ(rel.Get(7, 1), Value::Int(9223372036854775807LL));
}

}  // namespace
}  // namespace cvrepair
