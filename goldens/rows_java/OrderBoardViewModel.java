import java.util.ArrayList;
import java.util.List;

public abstract class OrderBoardViewModel {

    public static class Cell {
        public String text = "";
        public String tooltip = "";
        public String color = "";
    }

    public static class Row {
        public List<Cell> cells = new ArrayList<>();
        public String color = "";
    }

    private List<Row> ordersRows = new ArrayList<>();
    private Integer ordersSelectedRow;
    private List<Row> logRows = new ArrayList<>();

    public List<Row> getOrdersRows() {
        return ordersRows;
    }

    public void setOrdersRows(List<Row> value) {
        this.ordersRows = value;
    }

    public Integer getOrdersSelectedRow() {
        return ordersSelectedRow;
    }

    public void setOrdersSelectedRow(Integer value) {
        this.ordersSelectedRow = value;
    }

    public List<Row> getLogRows() {
        return logRows;
    }

    public void setLogRows(List<Row> value) {
        this.logRows = value;
    }

    public abstract void onLoadView(String orders);

    public abstract void onOrdersSelectRow(int rowIndex);
}
