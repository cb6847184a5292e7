#pragma once

#include <optional>
#include <string>
#include <vector>

namespace vmbench {

class TaskListViewModel {
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

    virtual ~TaskListViewModel() = default;

    const std::vector<Row>& getTasksRows() const { return tasksRows_; }
    void setTasksRows(std::vector<Row> value) { tasksRows_ = std::move(value); }

    std::optional<int> getTasksSelectedRow() const { return tasksSelectedRow_; }
    void setTasksSelectedRow(std::optional<int> value) { tasksSelectedRow_ = value; }

    bool isAddNewTaskEnabled() const { return addNewTaskEnabled_; }
    void setAddNewTaskEnabled(bool value) { addNewTaskEnabled_ = value; }

    bool isDeleteTaskEnabled() const { return deleteTaskEnabled_; }
    void setDeleteTaskEnabled(bool value) { deleteTaskEnabled_ = value; }

private:
    std::vector<Row> tasksRows_;
    std::optional<int> tasksSelectedRow_;
    bool addNewTaskEnabled_ = false;
    bool deleteTaskEnabled_ = false;
};

}  // namespace vmbench
