package com.example.tasks;

import org.junit.jupiter.api.Test;

import static org.junit.jupiter.api.Assertions.assertEquals;

class TaskListTestsTest {

    @Test
    void loadTasksAndAddNew() {
        TaskListViewModel vm = new TaskListViewModel();
        TaskListViewModelController controller = new TaskListViewModelController(vm);
        TaskListTestsSetup setup = new TaskListTestsSetup(vm);
        String sampleTasks = "[{\"Priority\":\"prioLow\",\"Task Name\":\"Exercise\",\"Due Date\":\"2024-01-04\",\"Due Date Long\":\"4th January 2024\"},{\"Priority\":\"prioHigh\",\"Task Name\":\"Taxes\",\"Due Date\":\"2024-02-01\",\"Due Date Long\":\"1st February 2024\"}]";
        setup.provideContext("sampleTasks", sampleTasks, "file");
        TaskListViewModelController.LoadViewParams loadViewParams = new TaskListViewModelController.LoadViewParams();
        loadViewParams.tasks = sampleTasks;
        controller.onLoadView(loadViewParams);
        controller.onAddNewTaskClick();
        // expected Tasks rows:
        // | Priority | Task Name | Due Date                                |
        // | prioLow  | Exercise  | 2024-01-04 [tooltip "4th January 2024"] |
        // | prioHigh | Taxes     | 2024-02-01                              | [color red]
        // | prioNone | New Task  |                                         | [selected]
        assertEquals(3, vm.getTasksRows().size(), "Tasks: row count");
        assertEquals("prioLow", vm.getTasksRows().get(0).cells.get(0).text, "Tasks[0][Priority]: value");
        assertEquals("Exercise", vm.getTasksRows().get(0).cells.get(1).text, "Tasks[0][Task Name]: value");
        assertEquals("2024-01-04", vm.getTasksRows().get(0).cells.get(2).text, "Tasks[0][Due Date]: value");
        assertEquals("4th January 2024", vm.getTasksRows().get(0).cells.get(2).tooltip, "Tasks[0][Due Date]: tooltip");
        assertEquals("prioHigh", vm.getTasksRows().get(1).cells.get(0).text, "Tasks[1][Priority]: value");
        assertEquals("Taxes", vm.getTasksRows().get(1).cells.get(1).text, "Tasks[1][Task Name]: value");
        assertEquals("2024-02-01", vm.getTasksRows().get(1).cells.get(2).text, "Tasks[1][Due Date]: value");
        assertEquals("red", vm.getTasksRows().get(1).color, "Tasks[1]: color");
        assertEquals("prioNone", vm.getTasksRows().get(2).cells.get(0).text, "Tasks[2][Priority]: value");
        assertEquals("New Task", vm.getTasksRows().get(2).cells.get(1).text, "Tasks[2][Task Name]: value");
        assertEquals("", vm.getTasksRows().get(2).cells.get(2).text, "Tasks[2][Due Date]: value");
        assertEquals(Integer.valueOf(2), vm.getTasksSelectedRow(), "Tasks: selected row");
        assertEquals(true, vm.isAddNewTaskEnabled(), "AddNewTask.enabled");
        assertEquals(true, vm.isDeleteTaskEnabled(), "DeleteTask.enabled");
    }
}
