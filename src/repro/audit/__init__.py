"""Application layer: hand-crafted templates, NL rendering and the
streaming access monitor.  The patient portal and the compliance report
are :meth:`repro.api.AuditService.patient_report` and
:meth:`repro.api.AuditService.report`."""

from .handcrafted import (
    all_event_user_templates,
    dataset_a_doctor_templates,
    event_group_template,
    event_same_department_template,
    event_user_template,
    group_templates,
    repeat_access_template,
    same_department_templates,
)
from .nl import TABLE_PHRASES, describe_careweb_path, with_careweb_description
from .streaming import AccessMonitor, StreamedAccess

__all__ = [
    "AccessMonitor",
    "StreamedAccess",
    "TABLE_PHRASES",
    "all_event_user_templates",
    "dataset_a_doctor_templates",
    "describe_careweb_path",
    "event_group_template",
    "event_same_department_template",
    "event_user_template",
    "group_templates",
    "repeat_access_template",
    "same_department_templates",
    "with_careweb_description",
]
