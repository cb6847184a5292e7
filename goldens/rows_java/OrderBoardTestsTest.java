import org.junit.jupiter.api.Test;

import static org.junit.jupiter.api.Assertions.assertEquals;

class OrderBoardTestsTest {

    @Test
    void selectTheSecondOrder() {
        OrderBoardViewModelImpl vm = new OrderBoardViewModelImpl();
        OrderBoardTestsSetup setup = new OrderBoardTestsSetup(vm);
        String orders = "Status | Item | Note | Paid\n"
                + "open | Apples | urgent | false\n"
                + "done | Pears | \"left\" \\ ok | true\n"
                + "open | Plums |  | false";
        setup.provideContext("orders", orders, "inline");
        vm.onLoadView(orders);
        // the view applies setOrdersSelectedRow(1) before the command runs
        vm.onOrdersSelectRow(1);
        // expected Orders rows:
        // | Item                   | Paid              | Status             |
        // | Apples [color red]     | *                 | open               | [color none]
        // | Pears [tooltip "a\"b"] | true [color none] | *                  | [selected] [color green]
        // | [color blue]           | false             | open [tooltip "x"] |
        assertEquals(3, vm.getOrdersRows().size(), "Orders: row count");
        assertEquals("Apples", vm.getOrdersRows().get(0).cells.get(1).text, "Orders[0][Item]: value");
        assertEquals("red", vm.getOrdersRows().get(0).cells.get(1).color, "Orders[0][Item]: color");
        assertEquals("open", vm.getOrdersRows().get(0).cells.get(0).text, "Orders[0][Status]: value");
        assertEquals("", vm.getOrdersRows().get(0).color, "Orders[0]: color");
        assertEquals("Pears", vm.getOrdersRows().get(1).cells.get(1).text, "Orders[1][Item]: value");
        assertEquals("a\"b", vm.getOrdersRows().get(1).cells.get(1).tooltip, "Orders[1][Item]: tooltip");
        assertEquals("true", vm.getOrdersRows().get(1).cells.get(3).text, "Orders[1][Paid]: value");
        assertEquals("", vm.getOrdersRows().get(1).cells.get(3).color, "Orders[1][Paid]: color");
        assertEquals("green", vm.getOrdersRows().get(1).color, "Orders[1]: color");
        assertEquals(Integer.valueOf(1), vm.getOrdersSelectedRow(), "Orders: selected row");
        assertEquals("", vm.getOrdersRows().get(2).cells.get(1).text, "Orders[2][Item]: value");
        assertEquals("blue", vm.getOrdersRows().get(2).cells.get(1).color, "Orders[2][Item]: color");
        assertEquals("false", vm.getOrdersRows().get(2).cells.get(3).text, "Orders[2][Paid]: value");
        assertEquals("open", vm.getOrdersRows().get(2).cells.get(0).text, "Orders[2][Status]: value");
        assertEquals("x", vm.getOrdersRows().get(2).cells.get(0).tooltip, "Orders[2][Status]: tooltip");
        assertEquals(Integer.valueOf(1), vm.getOrdersSelectedRow(), "Orders: selected row");
    }

    @Test
    void nothingSelected() {
        OrderBoardViewModelImpl vm = new OrderBoardViewModelImpl();
        OrderBoardTestsSetup setup = new OrderBoardTestsSetup(vm);
        // expected Orders rows:
        // | Paid | Item |
        assertEquals(0, vm.getOrdersRows().size(), "Orders: row count");
        assertEquals((Integer) null, vm.getOrdersSelectedRow(), "Orders: selected row");
        // expected Log rows:
        // | What              | When |
        // | boot [color gray] | *    | [color yellow]
        // | started           | 9:00 |
        assertEquals(2, vm.getLogRows().size(), "Log: row count");
        assertEquals("boot", vm.getLogRows().get(0).cells.get(1).text, "Log[0][What]: value");
        assertEquals("gray", vm.getLogRows().get(0).cells.get(1).color, "Log[0][What]: color");
        assertEquals("yellow", vm.getLogRows().get(0).color, "Log[0]: color");
        assertEquals("started", vm.getLogRows().get(1).cells.get(1).text, "Log[1][What]: value");
        assertEquals("9:00", vm.getLogRows().get(1).cells.get(0).text, "Log[1][When]: value");
    }
}
