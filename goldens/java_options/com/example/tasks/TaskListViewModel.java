package com.example.tasks;

import java.util.ArrayList;
import java.util.List;

public class TaskListViewModel {

    public static class Cell {
        public String text = "";
        public String tooltip = "";
        public String color = "";
    }

    public static class Row {
        public List<Cell> cells = new ArrayList<>();
        public String color = "";
    }

    private List<Row> tasksRows = new ArrayList<>();
    private Integer tasksSelectedRow;
    private boolean addNewTaskEnabled;
    private boolean deleteTaskEnabled;

    public List<Row> getTasksRows() {
        return tasksRows;
    }

    public void setTasksRows(List<Row> value) {
        this.tasksRows = value;
    }

    public Integer getTasksSelectedRow() {
        return tasksSelectedRow;
    }

    public void setTasksSelectedRow(Integer value) {
        this.tasksSelectedRow = value;
    }

    public boolean isAddNewTaskEnabled() {
        return addNewTaskEnabled;
    }

    public void setAddNewTaskEnabled(boolean value) {
        this.addNewTaskEnabled = value;
    }

    public boolean isDeleteTaskEnabled() {
        return deleteTaskEnabled;
    }

    public void setDeleteTaskEnabled(boolean value) {
        this.deleteTaskEnabled = value;
    }
}
