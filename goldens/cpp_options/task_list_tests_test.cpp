#include "task_list_view_model.hpp"
#include "task_list_view_model_impl.hpp"
#include "task_list_view_model_controller.hpp"
#include "task_list_view_model_controller_impl.hpp"
#include "task_list_tests_setup.hpp"
#include "vimotest_assert.hpp"

#include <optional>
#include <string>

static void test_loadTasksAndAddNew() {
    vmbench::TaskListViewModelImpl vm;
    vmbench::TaskListViewModelControllerImpl controller(vm);
    vmbench::TaskListTestsSetup setup(vm);
    std::string sampleTasks = "<rows><row Priority=\"prioLow\" Task_Name=\"Exercise\" Due_Date=\"2024-01-04\" Due_Date_Long=\"4th January 2024\"/><row Priority=\"prioHigh\" Task_Name=\"Taxes\" Due_Date=\"2024-02-01\" Due_Date_Long=\"1st February 2024\"/></rows>";
    setup.provideContext("sampleTasks", sampleTasks, "inline");
    vmbench::TaskListViewModelController::LoadViewParams loadViewParams;
    loadViewParams.tasks = sampleTasks;
    controller.onLoadView(loadViewParams);
    controller.onAddNewTaskClick();
    // expected Tasks rows:
    // | Priority | Task Name | Due Date                                |
    // | prioLow  | Exercise  | 2024-01-04 [tooltip "4th January 2024"] |
    // | prioHigh | Taxes     | 2024-02-01                              | [color red]
    // | prioNone | New Task  |                                         | [selected]
    VT_ASSERT_EQ(std::size_t(3), vm.getTasksRows().size(), "Tasks: row count");
    VT_ASSERT_EQ(std::string("prioLow"), vm.getTasksRows()[0].cells[0].text, "Tasks[0][Priority]: value");
    VT_ASSERT_EQ(std::string("Exercise"), vm.getTasksRows()[0].cells[1].text, "Tasks[0][Task Name]: value");
    VT_ASSERT_EQ(std::string("2024-01-04"), vm.getTasksRows()[0].cells[2].text, "Tasks[0][Due Date]: value");
    VT_ASSERT_EQ(std::string("4th January 2024"), vm.getTasksRows()[0].cells[2].tooltip, "Tasks[0][Due Date]: tooltip");
    VT_ASSERT_EQ(std::string("prioHigh"), vm.getTasksRows()[1].cells[0].text, "Tasks[1][Priority]: value");
    VT_ASSERT_EQ(std::string("Taxes"), vm.getTasksRows()[1].cells[1].text, "Tasks[1][Task Name]: value");
    VT_ASSERT_EQ(std::string("2024-02-01"), vm.getTasksRows()[1].cells[2].text, "Tasks[1][Due Date]: value");
    VT_ASSERT_EQ(std::string("red"), vm.getTasksRows()[1].color, "Tasks[1]: color");
    VT_ASSERT_EQ(std::string("prioNone"), vm.getTasksRows()[2].cells[0].text, "Tasks[2][Priority]: value");
    VT_ASSERT_EQ(std::string("New Task"), vm.getTasksRows()[2].cells[1].text, "Tasks[2][Task Name]: value");
    VT_ASSERT_EQ(std::string(""), vm.getTasksRows()[2].cells[2].text, "Tasks[2][Due Date]: value");
    VT_ASSERT_EQ(std::optional<int>(2), vm.getTasksSelectedRow(), "Tasks: selected row");
    VT_ASSERT_EQ(true, vm.isAddNewTaskEnabled(), "AddNewTask.enabled");
    VT_ASSERT_EQ(true, vm.isDeleteTaskEnabled(), "DeleteTask.enabled");
}

int main() {
    test_loadTasksAndAddNew();
    return ::vimotest::summary();
}
