#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace bsis {
namespace {

TEST(Error, AssertThrowsWithLocation)
{
    try {
        BSIS_ASSERT(1 == 2);
        FAIL() << "expected throw";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("test_util.cpp"),
                  std::string::npos);
    }
}

TEST(Error, EnsureArgThrowsBadArgument)
{
    const auto f = [](int x) { BSIS_ENSURE_ARG(x > 0, "x must be positive"); };
    EXPECT_NO_THROW(f(1));
    EXPECT_THROW(f(0), BadArgument);
}

TEST(Error, EnsureDimsThrowsDimensionMismatch)
{
    const auto f = [](int n, int m) {
        BSIS_ENSURE_DIMS(n == m, "sizes differ");
    };
    EXPECT_NO_THROW(f(3, 3));
    EXPECT_THROW(f(3, 4), DimensionMismatch);
}

TEST(Error, HierarchyRootsAtError)
{
    EXPECT_THROW(throw NumericalBreakdown("here", "pivot"), Error);
    EXPECT_THROW(throw ParseError("here", "bad line"), Error);
}

TEST(Timer, MeasuresElapsedTime)
{
    Timer timer;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const double s = timer.seconds();
    EXPECT_GE(s, 0.009);
    EXPECT_LT(s, 1.0);
    EXPECT_NEAR(timer.milliseconds(), timer.seconds() * 1e3,
                timer.seconds() * 10);
}

TEST(Timer, ResetRestartsTheClock)
{
    Timer timer;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    timer.reset();
    EXPECT_LT(timer.seconds(), 0.005);
}

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a(), b());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        equal += a() == b();
    }
    EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-2.0, 3.0);
        ASSERT_GE(u, -2.0);
        ASSERT_LT(u, 3.0);
    }
}

TEST(Rng, UniformIntUnbiasedSmallRange)
{
    Rng rng(13);
    int counts[5] = {};
    constexpr int n = 50000;
    for (int i = 0; i < n; ++i) {
        ++counts[rng.uniform_int(5)];
    }
    for (const int c : counts) {
        EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.02);
    }
}

TEST(Table, PrintsAlignedColumns)
{
    Table t({"name", "value"});
    t.new_row().add("alpha").add(1.5);
    t.new_row().add("b").add(std::int64_t{42});
    std::ostringstream os;
    t.print(os);
    const auto text = os.str();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("42"), std::string::npos);
    EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(Table, CsvOutputHasHeaderAndRows)
{
    Table t({"a", "b"});
    t.new_row().add(1).add(2);
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RejectsTooManyCells)
{
    Table t({"only"});
    t.new_row().add("x");
    EXPECT_THROW(t.add("overflow"), BadArgument);
}

TEST(Table, RejectsAddBeforeNewRow)
{
    Table t({"a"});
    EXPECT_THROW(t.add("x"), BadArgument);
}

TEST(Table, RejectsEmptyHeader)
{
    EXPECT_THROW(Table({}), BadArgument);
}

}  // namespace
}  // namespace bsis
