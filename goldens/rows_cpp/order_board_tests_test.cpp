#include "order_board_view_model.hpp"
#include "order_board_view_model_impl.hpp"
#include "order_board_tests_setup.hpp"
#include "vimotest_assert.hpp"

#include <optional>
#include <string>

static void test_selectTheSecondOrder() {
    OrderBoardViewModelImpl vm;
    OrderBoardTestsSetup setup(vm);
    std::string orders = "Status | Item | Note | Paid\n"
        "open | Apples | urgent | false\n"
        "done | Pears | \"left\" \\ ok | true\n"
        "open | Plums |  | false";
    setup.provideContext("orders", orders, "inline");
    vm.onLoadView(orders);
    // the view applies setOrdersSelectedRow(1) before the command runs
    vm.onOrdersSelectRow(1);
    // expected Orders rows:
    // | Item                   | Paid              | Status             |
    // | Apples [color red]     | *                 | open               | [color none]
    // | Pears [tooltip "a\"b"] | true [color none] | *                  | [selected] [color green]
    // | [color blue]           | false             | open [tooltip "x"] |
    VT_ASSERT_EQ(std::size_t(3), vm.getOrdersRows().size(), "Orders: row count");
    if (vm.getOrdersRows().size() == 3) {
        VT_ASSERT_EQ(std::string("Apples"), vm.getOrdersRows()[0].cells[1].text, "Orders[0][Item]: value");
        VT_ASSERT_EQ(std::string("red"), vm.getOrdersRows()[0].cells[1].color, "Orders[0][Item]: color");
        VT_ASSERT_EQ(std::string("open"), vm.getOrdersRows()[0].cells[0].text, "Orders[0][Status]: value");
        VT_ASSERT_EQ(std::string(""), vm.getOrdersRows()[0].color, "Orders[0]: color");
        VT_ASSERT_EQ(std::string("Pears"), vm.getOrdersRows()[1].cells[1].text, "Orders[1][Item]: value");
        VT_ASSERT_EQ(std::string("a\"b"), vm.getOrdersRows()[1].cells[1].tooltip, "Orders[1][Item]: tooltip");
        VT_ASSERT_EQ(std::string("true"), vm.getOrdersRows()[1].cells[3].text, "Orders[1][Paid]: value");
        VT_ASSERT_EQ(std::string(""), vm.getOrdersRows()[1].cells[3].color, "Orders[1][Paid]: color");
        VT_ASSERT_EQ(std::string("green"), vm.getOrdersRows()[1].color, "Orders[1]: color");
        VT_ASSERT_EQ(std::optional<int>(1), vm.getOrdersSelectedRow(), "Orders: selected row");
        VT_ASSERT_EQ(std::string(""), vm.getOrdersRows()[2].cells[1].text, "Orders[2][Item]: value");
        VT_ASSERT_EQ(std::string("blue"), vm.getOrdersRows()[2].cells[1].color, "Orders[2][Item]: color");
        VT_ASSERT_EQ(std::string("false"), vm.getOrdersRows()[2].cells[3].text, "Orders[2][Paid]: value");
        VT_ASSERT_EQ(std::string("open"), vm.getOrdersRows()[2].cells[0].text, "Orders[2][Status]: value");
        VT_ASSERT_EQ(std::string("x"), vm.getOrdersRows()[2].cells[0].tooltip, "Orders[2][Status]: tooltip");
        VT_ASSERT_EQ(std::optional<int>(1), vm.getOrdersSelectedRow(), "Orders: selected row");
    }
}

static void test_nothingSelected() {
    OrderBoardViewModelImpl vm;
    OrderBoardTestsSetup setup(vm);
    // expected Orders rows:
    // | Paid | Item |
    VT_ASSERT_EQ(std::size_t(0), vm.getOrdersRows().size(), "Orders: row count");
    if (vm.getOrdersRows().size() == 0) {
        VT_ASSERT_EQ(std::optional<int>(), vm.getOrdersSelectedRow(), "Orders: selected row");
    }
    // expected Log rows:
    // | What              | When |
    // | boot [color gray] | *    | [color yellow]
    // | started           | 9:00 |
    VT_ASSERT_EQ(std::size_t(2), vm.getLogRows().size(), "Log: row count");
    if (vm.getLogRows().size() == 2) {
        VT_ASSERT_EQ(std::string("boot"), vm.getLogRows()[0].cells[1].text, "Log[0][What]: value");
        VT_ASSERT_EQ(std::string("gray"), vm.getLogRows()[0].cells[1].color, "Log[0][What]: color");
        VT_ASSERT_EQ(std::string("yellow"), vm.getLogRows()[0].color, "Log[0]: color");
        VT_ASSERT_EQ(std::string("started"), vm.getLogRows()[1].cells[1].text, "Log[1][What]: value");
        VT_ASSERT_EQ(std::string("9:00"), vm.getLogRows()[1].cells[0].text, "Log[1][When]: value");
    }
}

int main() {
    test_selectTheSecondOrder();
    test_nothingSelected();
    return ::vimotest::summary();
}
