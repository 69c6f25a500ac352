"""Remnant of the retired array-backend layer; see :mod:`repro.backend.base`."""
