#include <gtest/gtest.h>

#include "common/table.hpp"

namespace noc {
namespace {

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
  EXPECT_EQ(Table::fmt_int(42), "42");
  EXPECT_EQ(Table::fmt_percent(0.487), "48.7%");
  EXPECT_EQ(Table::fmt_percent(0.5, 0), "50%");
}

TEST(Table, RowsShorterThanHeaderAreLegal) {
  Table t;
  t.set_columns({"a", "b", "c"});
  t.add_row({"only one"});
  EXPECT_EQ(t.rows().size(), 1u);
  t.print();  // must not crash
}

TEST(Table, PrintAlignsWithoutCrashing) {
  Table t("alignment");
  t.set_columns({"short", "a much longer header"});
  t.add_row({"the longest cell in this column", "x"});
  t.add_row({"y", "z"});
  t.print();
  SUCCEED();
}

}  // namespace
}  // namespace noc
