// common/json.hpp: the one writer behind campaign records, gathered
// reports, BENCH_perf.json rows and the telemetry exports. Its layout is
// the record layout existing result stores hold, so it is pinned here as
// literal text; doubles must read back bit-equal; files are replaced whole
// or not at all.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/json.hpp"

namespace noc {
namespace {

TEST(JsonWriter, NestedDocumentLayout) {
  json::Writer w;
  w.begin_object()
      .field("name", "smoke/measure")
      .field("count", 3)
      .field("big", uint64_t{18446744073709551615u})
      .field("neg", int64_t{-7})
      .field("half", 0.5)
      .key("empty_object")
      .begin_object()
      .end_object()
      .key("empty_array")
      .begin_array()
      .end_array()
      .key("rows")
      .begin_array()
      .begin_object()
      .field("a", 1)
      .key("inner")
      .begin_array()
      .value(2)
      .value("x")
      .end_array()
      .end_object()
      .value(1.25)
      .begin_array()
      .end_array()
      .end_array()
      .key("last")
      .begin_object()
      .field("k", "v")
      .end_object()
      .end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"name\": \"smoke/measure\",\n"
            "  \"count\": 3,\n"
            "  \"big\": 18446744073709551615,\n"
            "  \"neg\": -7,\n"
            "  \"half\": 0.5,\n"
            "  \"empty_object\": {},\n"
            "  \"empty_array\": [],\n"
            "  \"rows\": [\n"
            "    {\n"
            "      \"a\": 1,\n"
            "      \"inner\": [\n"
            "        2,\n"
            "        \"x\"\n"
            "      ]\n"
            "    },\n"
            "    1.25,\n"
            "    []\n"
            "  ],\n"
            "  \"last\": {\n"
            "    \"k\": \"v\"\n"
            "  }\n"
            "}\n");
}

TEST(JsonWriter, DoublesReadBackBitEqual) {
  for (const double v : {0.1, 1e-300, 830000000.0, -0.0, 1.0 / 3.0,
                         4.9406564584124654e-324, 1.7976931348623157e308}) {
    json::Writer w;
    w.begin_array().value(v).end_array();
    // "[\n  <number>\n]\n"
    const std::string& s = w.str();
    const std::string number = s.substr(4, s.size() - 7);
    char* end = nullptr;
    const double back = std::strtod(number.c_str(), &end);
    EXPECT_EQ(*end, '\0') << number;
    EXPECT_EQ(std::bit_cast<uint64_t>(back), std::bit_cast<uint64_t>(v))
        << number;
  }
  json::Writer w;
  w.begin_array().value(830000000.0).value(-0.0).end_array();
  EXPECT_EQ(w.str(), "[\n  830000000,\n  -0\n]\n");
}

TEST(JsonFile, WriteIntoMissingDirectoryFailsWithoutTmp) {
  const std::string dir = ::testing::TempDir() + "json_missing_dir";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/out.json";
  EXPECT_FALSE(json::write_file(path, "{}\n"));
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(JsonFile, WriteReplacesExistingFileWhole) {
  const std::string path = ::testing::TempDir() + "json_replace.json";
  const std::string longer(10000, 'x');
  ASSERT_TRUE(json::write_file(path, longer));
  EXPECT_EQ(json::read_file(path), longer);
  ASSERT_TRUE(json::write_file(path, "{}\n"));
  EXPECT_EQ(json::read_file(path), "{}\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
  EXPECT_EQ(json::read_file(path), "");
}

}  // namespace
}  // namespace noc
