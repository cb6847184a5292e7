#pragma once

#include <optional>
#include <string>
#include <vector>

class OrderBoardViewModel {
public:
    struct Cell {
        std::string text;
        std::string tooltip;
        std::string color;
    };

    struct Row {
        std::vector<Cell> cells;
        std::string color;
    };

    virtual ~OrderBoardViewModel() = default;

    const std::vector<Row>& getOrdersRows() const { return ordersRows_; }
    void setOrdersRows(std::vector<Row> value) { ordersRows_ = std::move(value); }

    std::optional<int> getOrdersSelectedRow() const { return ordersSelectedRow_; }
    void setOrdersSelectedRow(std::optional<int> value) { ordersSelectedRow_ = value; }

    const std::vector<Row>& getLogRows() const { return logRows_; }
    void setLogRows(std::vector<Row> value) { logRows_ = std::move(value); }

    virtual void onLoadView(const std::string& orders) = 0;

    virtual void onOrdersSelectRow(int rowIndex) = 0;

private:
    std::vector<Row> ordersRows_;
    std::optional<int> ordersSelectedRow_;
    std::vector<Row> logRows_;
};
