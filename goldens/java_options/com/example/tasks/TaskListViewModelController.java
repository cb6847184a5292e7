package com.example.tasks;

public class TaskListViewModelController {

    public static class LoadViewParams {
        public String tasks;
    }

    protected final TaskListViewModel viewModel;

    public TaskListViewModelController(TaskListViewModel viewModel) {
        this.viewModel = viewModel;
    }

    public void onLoadView(LoadViewParams params) {
    }

    public void onTasksSelectRow(int rowIndex) {
    }

    public void onAddNewTaskClick() {
    }

    public void onDeleteTaskClick() {
    }
}
