#include "util/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace mgardp {
namespace {

TEST(BinaryIoTest, PodRoundTrip) {
  BinaryWriter w;
  w.Put<std::int32_t>(-7);
  w.Put<std::uint64_t>(123456789ULL);
  w.Put<double>(3.25);
  BinaryReader r(w.buffer());
  std::int32_t i = 0;
  std::uint64_t u = 0;
  double d = 0.0;
  ASSERT_TRUE(r.Get(&i).ok());
  ASSERT_TRUE(r.Get(&u).ok());
  ASSERT_TRUE(r.Get(&d).ok());
  EXPECT_EQ(i, -7);
  EXPECT_EQ(u, 123456789ULL);
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_TRUE(r.exhausted());
}

TEST(BinaryIoTest, VectorRoundTrip) {
  BinaryWriter w;
  std::vector<double> v{1.5, -2.5, 0.0};
  w.PutVector(v);
  std::vector<int> empty;
  w.PutVector(empty);
  BinaryReader r(w.buffer());
  std::vector<double> v2;
  std::vector<int> e2{9};
  ASSERT_TRUE(r.GetVector(&v2).ok());
  ASSERT_TRUE(r.GetVector(&e2).ok());
  EXPECT_EQ(v2, v);
  EXPECT_TRUE(e2.empty());
}

TEST(BinaryIoTest, StringRoundTrip) {
  BinaryWriter w;
  w.PutString("hello\0world");
  std::string embedded("a\0b", 3);
  w.PutString(embedded);
  BinaryReader r(w.buffer());
  std::string s1, s2;
  ASSERT_TRUE(r.GetString(&s1).ok());
  ASSERT_TRUE(r.GetString(&s2).ok());
  EXPECT_EQ(s1, "hello");  // C-string constructor stops at NUL
  EXPECT_EQ(s2, embedded);
}

TEST(BinaryIoTest, TruncatedReadFails) {
  BinaryWriter w;
  w.Put<std::int32_t>(1);
  BinaryReader r(w.buffer());
  std::int64_t wide = 0;
  EXPECT_FALSE(r.Get(&wide).ok());
}

TEST(BinaryIoTest, TruncatedVectorFails) {
  BinaryWriter w;
  w.Put<std::uint64_t>(1000);  // claims 1000 entries, provides none
  BinaryReader r(w.buffer());
  std::vector<double> v;
  EXPECT_FALSE(r.GetVector(&v).ok());
}

TEST(BinaryIoTest, CountsThatWrapTheBoundsCheckFail) {
  // 2^61 doubles is 2^64 bytes: pos + n * sizeof(T) wraps to a small
  // number, so the bound must be checked against the bytes left.
  for (std::uint64_t n : {std::uint64_t{1} << 61, ~std::uint64_t{0}}) {
    BinaryWriter w;
    w.Put<std::uint64_t>(n);
    w.Put<double>(1.0);
    BinaryReader vec_reader(w.buffer());
    std::vector<double> v;
    EXPECT_EQ(vec_reader.GetVector(&v).code(), StatusCode::kOutOfRange);
    BinaryReader str_reader(w.buffer());
    std::string s;
    EXPECT_EQ(str_reader.GetString(&s).code(), StatusCode::kOutOfRange);
  }
  BinaryWriter w;
  w.Put<std::uint64_t>(7);
  BinaryReader r(w.buffer());
  std::uint32_t word = 0;
  ASSERT_TRUE(r.Get(&word).ok());
  char byte = 0;
  EXPECT_FALSE(r.GetBytes(&byte, ~std::size_t{0}).ok());
}

TEST(FileIoTest, WriteReadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mgardp_io_test.bin").string();
  std::string content("binary\0data\xff", 12);
  ASSERT_TRUE(WriteFile(path, content).ok());
  auto loaded = ReadFileToString(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), content);
  std::filesystem::remove(path);
}

TEST(FileIoTest, MissingFileFails) {
  auto result = ReadFileToString("/nonexistent/path/to/file");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace mgardp
