#include "util/table.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace duti {
namespace {

TEST(Table, PrintAlignsColumns) {
  Table t({"k", "q*", "note"});
  t.add_row({std::int64_t{16}, 3.14159, std::string("ok")});
  t.add_row({std::int64_t{1024}, 2.0, std::string("longer note")});
  std::ostringstream os;
  t.print(os, "demo");
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("1024"), std::string::npos);
  EXPECT_NE(out.find("longer note"), std::string::npos);
  EXPECT_NE(out.find("3.1416"), std::string::npos);  // 5 sig digits
}

TEST(Table, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::int64_t{1}}), InvalidArgument);
  EXPECT_THROW(t.add_row({std::int64_t{1}, 2.0, 3.0}), InvalidArgument);
}

TEST(Table, EmptyHeadersThrow) {
  EXPECT_THROW(Table(std::vector<std::string>{}), InvalidArgument);
}

TEST(Table, AccessorsWork) {
  Table t({"x"});
  t.add_row({std::int64_t{7}});
  EXPECT_EQ(std::get<std::int64_t>(t.row(0)[0]), 7);
}

TEST(Table, CsvRoundTrip) {
  Table t({"name", "value"});
  t.add_row({std::string("plain"), 1.5});
  t.add_row({std::string("with,comma"), 2.5});
  t.add_row({std::string("with\"quote"), 3.5});
  const std::string path = "/tmp/duti_test_table.csv";
  t.write_csv(path);
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "name,value");
  std::getline(f, line);
  EXPECT_EQ(line, "plain,1.5");
  std::getline(f, line);
  EXPECT_EQ(line, "\"with,comma\",2.5");
  std::getline(f, line);
  EXPECT_EQ(line, "\"with\"\"quote\",3.5");
  std::remove(path.c_str());
}

TEST(FormatDouble, SignificantDigits) {
  EXPECT_EQ(format_double(3.14159, 3), "3.14");
  EXPECT_EQ(format_double(1000000.0, 5), "1e+06");
  EXPECT_EQ(format_double(0.5, 5), "0.5");
}

}  // namespace
}  // namespace duti
