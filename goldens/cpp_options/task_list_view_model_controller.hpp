#pragma once

#include "task_list_view_model.hpp"
#include <string>

namespace vmbench {

class TaskListViewModelController {
public:
    struct LoadViewParams {
        std::string tasks;
    };

    explicit TaskListViewModelController(TaskListViewModel& viewModel)
        : viewModel_(viewModel) {}

    virtual ~TaskListViewModelController() = default;

    virtual void onLoadView(const LoadViewParams& params) = 0;

    virtual void onTasksSelectRow(int rowIndex) = 0;

    virtual void onAddNewTaskClick() = 0;

    virtual void onDeleteTaskClick() = 0;

protected:
    TaskListViewModel& viewModel_;
};

}  // namespace vmbench
